package plan_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/trance-go/trance/internal/biomed"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/plan"
	"github.com/trance-go/trance/internal/runner"
	"github.com/trance-go/trance/internal/tpch"
	"github.com/trance-go/trance/internal/value"
)

// TestFuseIsIdempotent: over every statement the standard and the unshredding
// route compile for each TPC-H class × level × width and for the biomedical
// pipeline, fusing the plan that runs changes nothing, the fused plan keeps
// its schema, and no π is left directly above a join.
func TestFuseIsIdempotent(t *testing.T) {
	cfg := runner.DefaultConfig()
	type prog struct {
		name  string
		steps []*runner.Compiled
	}
	var progs []prog
	for _, strat := range []runner.Strategy{runner.Standard, runner.Shred} {
		for _, class := range []tpch.QueryClass{tpch.FlatToNested, tpch.NestedToNested, tpch.NestedToFlat} {
			for level := 0; level <= tpch.MaxLevel; level++ {
				for _, wide := range []bool{false, true} {
					cq, err := runner.CompileStep(tpch.Query(class, level, wide), tpch.Env(class, level, wide), strat, cfg, nil, "Q")
					if err != nil {
						t.Fatal(err)
					}
					progs = append(progs, prog{fmt.Sprintf("%s/L%d/wide=%t/%s", class, level, wide, strat), []*runner.Compiled{cq}})
				}
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
		progs = append(progs, prog{"biomed/" + strat.String(), steps})
	}
	fusedJoins := 0
	for _, p := range progs {
		for _, cq := range p.steps {
			for _, st := range cq.Stmts {
				once := plan.Explain(st.Plan)
				if twice := plan.Explain(plan.Fuse(st.Plan)); twice != once {
					t.Errorf("%s, %s: fusing twice differs from fusing once:\n%s\nvs\n%s", p.name, st.Label, twice, once)
				}
				if got, want := fmt.Sprint(st.Plan.Columns()), fmt.Sprint(st.Raw.Columns()); got != want {
					t.Errorf("%s, %s: the fused plan yields %s, want %s", p.name, st.Label, got, want)
				}
				walk(st.Plan, func(o plan.Op) {
					switch x := o.(type) {
					case *plan.Join:
						if x.Outs != nil {
							fusedJoins++
						}
					case *plan.Project:
						if _, overJoin := x.In.(*plan.Join); overJoin {
							t.Errorf("%s, %s: a π is left above a join:\n%s", p.name, st.Label, once)
						}
					}
				})
			}
		}
	}
	if fusedJoins == 0 {
		t.Error("no compiled plan holds a join that writes its projection")
	}
}

func pcol(i int, name string, typ nrc.Type) plan.NamedExpr {
	return plan.NamedExpr{Name: name, Expr: &plan.Col{Idx: i, Name: name, Typ: typ}}
}

func times(l, r plan.Expr) plan.Expr {
	return &plan.ArithE{Op: nrc.Mul, L: l, R: r, Typ: nrc.IntT}
}

// TestFuseRules is the table of what each rule takes and what it refuses.
func TestFuseRules(t *testing.T) {
	scan := &plan.Scan{Input: "R", Cols: []plan.Column{{Name: "a", Type: nrc.IntT}, {Name: "b", Type: nrc.IntT}}}
	a, b := pcol(0, "a", nrc.IntT), pcol(1, "b", nrc.IntT)
	ab := plan.NamedExpr{Name: "ab", Expr: times(a.Expr, b.Expr)}
	ext := &plan.Extend{In: scan, Exprs: []plan.NamedExpr{ab}}
	abCol := pcol(2, "ab", nrc.IntT)
	indexed := &plan.AddIndex{In: scan, Name: "id"}
	id := pcol(2, "id", nrc.IntT)
	bagT := nrc.BagType{Elem: nrc.IntT}
	withBag := &plan.Scan{Input: "B", Cols: []plan.Column{{Name: "a", Type: nrc.IntT}, {Name: "xs", Type: bagT}}}

	cases := []struct {
		name string
		in   plan.Op
		want string // the operator lines of the fused plan, " / "-joined, without their column lists
	}{
		{"π∘ext composes",
			&plan.Project{In: ext, Outs: []plan.NamedExpr{b, abCol}},
			"π b=$1:b, ab=($0:a * $1:b) / Scan R"},
		{"an ext column read twice stays an ext",
			&plan.Project{In: ext, Outs: []plan.NamedExpr{abCol, {Name: "sq", Expr: times(abCol.Expr, abCol.Expr)}}},
			"π ab=$2:ab, sq=($2:ab * $2:ab) / ext ab=($0:a * $1:b) / Scan R"},
		{"a column or a literal read twice is inlined",
			&plan.Project{
				In:   &plan.Extend{In: scan, Exprs: []plan.NamedExpr{{Name: "b2", Expr: b.Expr}, {Name: "one", Expr: &plan.ConstE{Val: int64(1), Typ: nrc.IntT}}}},
				Outs: []plan.NamedExpr{{Name: "x", Expr: times(pcol(2, "b2", nrc.IntT).Expr, pcol(2, "b2", nrc.IntT).Expr)}, {Name: "y", Expr: times(pcol(3, "one", nrc.IntT).Expr, pcol(3, "one", nrc.IntT).Expr)}}},
			"π x=($1:b * $1:b), y=(1 * 1) / Scan R"},
		{"π∘π composes",
			&plan.Project{In: &plan.Project{In: scan, Outs: []plan.NamedExpr{b, a}}, Outs: []plan.NamedExpr{pcol(1, "a", nrc.IntT)}},
			"π a=$0:a / Scan R"},
		{"an inner CastBags π is left alone",
			&plan.Project{In: &plan.Project{In: withBag, Outs: []plan.NamedExpr{pcol(1, "xs", bagT)}, CastBags: true}, Outs: []plan.NamedExpr{pcol(0, "xs", bagT)}},
			"π xs=$0:xs / π xs=$1:xs / Scan B"},
		{"π sinks below addIndex when the ID passes through last",
			&plan.Project{In: indexed, Outs: []plan.NamedExpr{b, {Name: "_id", Expr: id.Expr}}},
			"addIndex _id / π b=$1:b / Scan R"},
		{"π stays when the ID is not last",
			&plan.Project{In: indexed, Outs: []plan.NamedExpr{id, b}},
			"π id=$2:id, b=$1:b / addIndex id / Scan R"},
		{"π stays when another output reads the ID",
			&plan.Project{In: indexed, Outs: []plan.NamedExpr{{Name: "x", Expr: times(id.Expr, b.Expr)}, id}},
			"π x=($2:id * $1:b), id=$2:id / addIndex id / Scan R"},
		{"π folds into ⋈, through the π of a swapped join too",
			&plan.Project{
				In:   &plan.Project{In: &plan.Join{L: scan, R: scan, LCols: []int{0}, RCols: []int{0}}, Outs: []plan.NamedExpr{pcol(2, "a", nrc.IntT), pcol(3, "b", nrc.IntT), a, b}},
				Outs: []plan.NamedExpr{{Name: "bb", Expr: times(pcol(1, "b", nrc.IntT).Expr, pcol(3, "b", nrc.IntT).Expr)}, pcol(2, "a", nrc.IntT)}},
			"⋈ L[0]=R[0] out[bb=($3:b * $1:b), a=$0:a] / Scan R / Scan R"},
		{"a π reading a folded join's computed output twice stays above it",
			&plan.Project{
				In:   &plan.Join{L: scan, R: scan, LCols: []int{0}, RCols: []int{0}, Outs: []plan.NamedExpr{ab}},
				Outs: []plan.NamedExpr{{Name: "sq", Expr: times(pcol(0, "ab", nrc.IntT).Expr, pcol(0, "ab", nrc.IntT).Expr)}}},
			"π sq=($0:ab * $0:ab) / ⋈ L[0]=R[0] out[ab=($0:a * $1:b)] / Scan R / Scan R"},
		{"chains fuse below σ, dedup, ⊎ and BagToDict",
			&plan.BagToDict{LabelCol: 0, In: &plan.UnionAll{
				L: &plan.DedupOp{In: &plan.Select{In: &plan.Project{In: ext, Outs: []plan.NamedExpr{b, abCol}}, Pred: &plan.ConstE{Val: true, Typ: nrc.BoolT}}},
				R: &plan.Project{In: ext, Outs: []plan.NamedExpr{b, abCol}}}},
			"bagToDict $0 / ⊎ / dedup / σ true / π b=$1:b, ab=($0:a * $1:b) / Scan R / π b=$1:b, ab=($0:a * $1:b) / Scan R"},
		// Prune builds this π (Outs nil) over a join nothing above reads; a
		// join whose Outs were nil would write L ++ R instead.
		{"a π to no columns folds into a join that writes none",
			&plan.Project{In: &plan.Join{L: scan, R: scan, LCols: []int{0}, RCols: []int{0}}},
			"⋈ L[0]=R[0] out[] / Scan R / Scan R"},
	}
	for _, c := range cases {
		fused := plan.Fuse(c.in)
		var lines []string
		for _, l := range strings.Split(strings.TrimSpace(plan.Explain(fused)), "\n") {
			lines = append(lines, strings.TrimSpace(strings.Split(l, "  →")[0]))
		}
		if got := strings.Join(lines, " / "); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
		if got, want := fmt.Sprint(fused.Columns()), fmt.Sprint(c.in.Columns()); got != want {
			t.Errorf("%s: the fused plan yields %s, want %s", c.name, got, want)
		}
	}
}

// TestFuseCastBagsIntoOuterJoin: a CastBags π (the NULL-bag cast a root head
// projects with) over ⟕ folds, and the join still turns the NULL bag of an
// unmatched outer row into {}.
func TestFuseCastBagsIntoOuterJoin(t *testing.T) {
	bagT := nrc.BagType{Elem: nrc.IntT}
	top := &plan.Scan{Input: "Top", Cols: []plan.Column{{Name: "k", Type: nrc.IntT}}}
	dict := &plan.Scan{Input: "Dict", Cols: []plan.Column{{Name: "label", Type: nrc.IntT}, {Name: "xs", Type: bagT}}}
	fused := plan.Fuse(&plan.Project{
		In:       &plan.Join{L: top, R: dict, LCols: []int{0}, RCols: []int{0}, Outer: true},
		Outs:     []plan.NamedExpr{pcol(0, "k", nrc.IntT), pcol(2, "xs", bagT)},
		CastBags: true,
	})
	j, ok := fused.(*plan.Join)
	if !ok || j.Outs == nil {
		t.Fatalf("the CastBags π did not fold into the join:\n%s", plan.Explain(fused))
	}
	if got, want := j.Describe(), "⟕ L[0]=R[0] out[k=$0:k, xs=castBag($2:xs)]"; got != want {
		t.Fatalf("got %s, want %s", got, want)
	}
	// What the probe evaluates for a miss: the left cells and NULL right ones.
	miss := plan.Row{int64(1), nil, nil}
	if got := j.Outs[1].Expr.Eval(miss); value.Compare(got, value.Bag{}) != 0 || got == nil {
		t.Fatalf("an unmatched outer row's bag is %v, want {}", got)
	}
	if got := fmt.Sprint(j.Columns()); got != fmt.Sprint((&plan.Project{Outs: j.Outs}).Columns()) || len(j.Columns()) != 2 {
		t.Fatalf("the fused join yields %s", got)
	}
}
