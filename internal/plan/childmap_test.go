package plan_test

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/trance-go/trance/internal/biomed"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/plan"
	"github.com/trance-go/trance/internal/runner"
	"github.com/trance-go/trance/internal/tpch"
)

// TestMapExprRebuildsEveryKind: the scalar-expression child map rebuilds one
// instance of every plan.Expr kind equal to itself. With the identity it hands
// the expression back; with fresh children it builds a new node that keeps
// every field.
func TestMapExprRebuildsEveryKind(t *testing.T) {
	a := &plan.Col{Idx: 0, Name: "a", Typ: nrc.IntT}
	b := &plan.Col{Idx: 1, Name: "b", Typ: nrc.IntT}
	one := &plan.ConstE{Val: int64(1), Typ: nrc.IntT}
	exprs := []plan.Expr{
		a,
		one,
		&plan.CmpE{Op: nrc.Le, L: a, R: one},
		&plan.ArithE{Op: nrc.Mul, L: a, R: b, Typ: nrc.IntT},
		&plan.NotE{E: &plan.CmpE{Op: nrc.Eq, L: a, R: b}},
		&plan.BoolE{And: true, L: &plan.CmpE{Op: nrc.Eq, L: a, R: b}, R: &plan.CmpE{Op: nrc.Ne, L: b, R: one}},
		&plan.MkTuple{Names: []string{"x", "y"}, Exprs: []plan.Expr{a, one}},
		&plan.MkLabel{Site: 7, Args: []plan.Expr{b, a}},
		&plan.LabelField{E: &plan.MkLabel{Site: 2, Args: []plan.Expr{a}}, Site: 2, Idx: 0, NParams: 1, Typ: nrc.IntT},
		&plan.CastNullBag{E: &plan.ConstE{Val: nil, Typ: nrc.BagType{Elem: nrc.IntT}}},
	}
	var fresh func(plan.Expr) plan.Expr
	fresh = func(e plan.Expr) plan.Expr {
		switch x := e.(type) {
		case *plan.Col:
			c := *x
			return &c
		case *plan.ConstE:
			c := *x
			return &c
		}
		return plan.MapExpr(e, fresh)
	}
	kinds := map[string]bool{}
	for _, e := range exprs {
		kinds[fmt.Sprintf("%T", e)] = true
		if got := plan.MapExpr(e, func(c plan.Expr) plan.Expr { return c }); !reflect.DeepEqual(got, e) || got != e {
			t.Errorf("the identity map rebuilt %s as %s", e, got)
		}
		got := plan.MapExpr(e, fresh)
		if !reflect.DeepEqual(got, e) {
			t.Errorf("rebuilding %s over fresh children gave %s", e, got)
		}
		if _, leaf := e.(*plan.Col); !leaf && !isConstE(e) && got == e {
			t.Errorf("fresh children left %s the same node", e)
		}
	}
	if len(kinds) != 10 {
		t.Fatalf("the table covers %d expression kinds, want all 10: %v", len(kinds), kinds)
	}
}

func isConstE(e plan.Expr) bool { _, ok := e.(*plan.ConstE); return ok }

// TestPassesKeepFieldsTheyDoNotOwn: Annotate and Optimize, run again over
// fused and placed plans, rebuild every operator through the one operator
// child map, so what Fuse and Place decided — a join's Outs, Placed and
// KeepSplit, a Γ's or dedup's Local, a BagToDict's Placed and KeepSplit — and
// every other field either pass does not own survive them.
func TestPassesKeepFieldsTheyDoNotOwn(t *testing.T) {
	cfg := runner.DefaultConfig()
	cfg.BroadcastLimit = 0 // every join shuffles, so Place marks the sides it skips
	var plans []plan.Op
	add := func(steps ...*runner.Compiled) {
		for _, cq := range steps {
			for _, st := range cq.Stmts {
				plans = append(plans, st.Plan)
			}
		}
	}
	for _, strat := range []runner.Strategy{runner.Standard, runner.Shred, runner.ShredSkew, runner.StandardSkew} {
		for _, class := range []tpch.QueryClass{tpch.FlatToNested, tpch.NestedToNested, tpch.NestedToFlat} {
			for level := 0; level <= 2; level++ {
				cq, err := runner.CompileStep(tpch.Query(class, level, false), tpch.Env(class, level, false), strat, cfg, nil, "Q")
				if err != nil {
					t.Fatal(err)
				}
				add(cq)
			}
		}
		bio := biomed.Steps()
		envs, _, err := runner.ResolveSteps(bio, biomed.Env())
		if err != nil {
			t.Fatal(err)
		}
		steps := make([]*runner.Compiled, len(bio))
		for i, st := range bio {
			eff := runner.StepStrategy(strat, steps[0])
			if steps[i], err = runner.CompileStep(st.Expr, envs[i], eff, cfg, nil, st.Name); err != nil {
				t.Fatal(err)
			}
		}
		add(steps...)
	}
	// Shapes Place marks every way, each fused first as a statement is.
	intScan := func(name string, cols ...string) *plan.Scan {
		s := &plan.Scan{Input: name}
		for _, c := range cols {
			s.Cols = append(s.Cols, plan.Column{Name: c, Type: nrc.IntT})
		}
		return s
	}
	pk, s := intScan("P", "k", "v"), intScan("S", "k", "w")
	join := func(l, r plan.Op, lcol int) *plan.Join {
		return &plan.Join{L: l, R: r, LCols: []int{lcol}, RCols: []int{0}, Cost: &plan.Costs{Method: plan.JoinShuffle}}
	}
	k, w := &plan.Col{Idx: 0, Name: "k", Typ: nrc.IntT}, &plan.Col{Idx: 3, Name: "w", Typ: nrc.IntT}
	bound := map[string][][]int{"P": {{0}}}
	for _, c := range []struct {
		op   plan.Op
		opts plan.PlaceOptions
	}{
		{&plan.Project{In: join(pk, s, 0), Outs: []plan.NamedExpr{{Name: "k", Expr: k}, {Name: "w", Expr: w}}}, plan.PlaceOptions{Bound: bound}},
		// A conjunct over what a fused join writes stays above it.
		{&plan.Select{In: &plan.Project{In: join(pk, s, 0), Outs: []plan.NamedExpr{{Name: "k", Expr: k}, {Name: "w", Expr: w}}},
			Pred: &plan.CmpE{Op: nrc.Gt, L: &plan.Col{Idx: 1, Name: "w", Typ: nrc.IntT}, R: &plan.ConstE{Val: int64(1), Typ: nrc.IntT}}}, plan.PlaceOptions{Bound: bound}},
		{join(join(pk, s, 1), s, 1), plan.PlaceOptions{SkewAware: true, Bound: bound}},
		{&plan.BagToDict{In: join(pk, s, 1), LabelCol: 1}, plan.PlaceOptions{SkewAware: true, Bound: bound}},
		{join(s, &plan.DedupOp{In: intScan("T", "k")}, 0), plan.PlaceOptions{}},
		{&plan.DedupOp{In: &plan.AddIndex{In: intScan("T", "k"), Name: "_id"}}, plan.PlaceOptions{}},
	} {
		placed, _ := plan.Place(plan.Fuse(c.op), c.opts)
		plans = append(plans, placed)
	}
	seen := map[string]int{}
	for _, p := range plans {
		// S is too large to broadcast and every other input small enough, so
		// under a limit Annotate swaps a join with S on its right, unless
		// Fuse or Place marked it.
		tables, swappable := map[string]plan.TableEstimate{}, false
		walk(p, func(o plan.Op) {
			if j, ok := o.(*plan.Join); ok && len(decided(j)) == 0 {
				swappable = true
			}
			if s, ok := o.(*plan.Scan); ok {
				tables[s.Input] = plan.TableEstimate{Rows: 100, Bytes: 6400}
				if s.Input == "S" {
					tables[s.Input] = plan.TableEstimate{Rows: 100, Bytes: 1 << 20}
				}
			}
			for _, f := range decided(o) {
				seen[f]++
			}
		})
		annotated, _ := plan.Annotate(p, tables, 0)
		optimized, _ := plan.Optimize(p)
		passes := map[string]plan.Op{"Annotate": annotated, "Optimize": optimized}
		if !swappable {
			passes["Annotate with a broadcast limit"], _ = plan.Annotate(p, tables, 1<<16)
		}
		for pass, out := range passes {
			if err := sameFields(p, out); err != nil {
				t.Errorf("%s: %v in\n%s", pass, err, plan.Explain(p))
			}
		}
	}
	for _, f := range []string{"Join.Outs", "Join.Placed", "Join.KeepSplit", "Nest.Local", "DedupOp.Local", "BagToDict.Placed", "BagToDict.KeepSplit"} {
		if seen[f] == 0 {
			t.Errorf("no plan sets %s; the check does not reach it (seen %v)", f, seen)
		}
	}
}

// decided lists the Fuse and Place decisions o carries.
func decided(o plan.Op) []string {
	var out []string
	note := func(set bool, f string) {
		if set {
			out = append(out, f)
		}
	}
	switch x := o.(type) {
	case *plan.Join:
		note(x.Outs != nil, "Join.Outs")
		note(x.Placed != [2]bool{}, "Join.Placed")
		note(x.KeepSplit, "Join.KeepSplit")
	case *plan.Nest:
		note(x.Local != nil, "Nest.Local")
	case *plan.DedupOp:
		note(x.Local != nil, "DedupOp.Local")
	case *plan.BagToDict:
		note(x.Placed, "BagToDict.Placed")
		note(x.KeepSplit, "BagToDict.KeepSplit")
	}
	return out
}

// sameFields walks two plans of the same shape together and reports the
// first operator whose fields differ, leaving out its inputs and the join
// cost annotation Annotate owns.
func sameFields(want, got plan.Op) error {
	strip := func(o plan.Op) any {
		v := reflect.New(reflect.TypeOf(o).Elem()).Elem()
		v.Set(reflect.ValueOf(o).Elem())
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Type() == reflect.TypeOf((*plan.Op)(nil)).Elem() || f.Type() == reflect.TypeOf((*plan.Costs)(nil)) {
				f.Set(reflect.Zero(f.Type()))
			}
		}
		return v.Interface()
	}
	if reflect.TypeOf(want) != reflect.TypeOf(got) {
		return fmt.Errorf("a %T became a %T", want, got)
	}
	if w, g := strip(want), strip(got); !reflect.DeepEqual(w, g) {
		return fmt.Errorf("%s became %s", want.Describe(), got.Describe())
	}
	wc, gc := want.Children(), got.Children()
	for i := range wc {
		if err := sameFields(wc[i], gc[i]); err != nil {
			return err
		}
	}
	return nil
}
