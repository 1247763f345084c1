package plan_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/trance-go/trance/internal/biomed"
	"github.com/trance-go/trance/internal/core"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/plan"
	"github.com/trance-go/trance/internal/runner"
	"github.com/trance-go/trance/internal/tpch"
)

// unpruned compiles q on the standard route with column pruning off.
func unpruned(t *testing.T, q nrc.Expr, env nrc.Env) plan.Op {
	t.Helper()
	c, err := core.NewCompiler(env)
	if err != nil {
		t.Fatal(err)
	}
	c.NoPrune = true
	op, err := c.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func walk(op plan.Op, fn func(plan.Op)) {
	fn(op)
	for _, ch := range op.Children() {
		walk(ch, fn)
	}
}

func hasAddIndex(op plan.Op) (found bool) {
	walk(op, func(o plan.Op) {
		if _, ok := o.(*plan.AddIndex); ok {
			found = true
		}
	})
	return found
}

// TestPruneThroughNestAndUnnest checks, over every TPC-H class × level ×
// width and the biomedical pipeline, that pruning is idempotent, that no Γ
// above an addIndex keeps a key column another key column's ID determines, and
// that the narrow level-2 standard plans shuffle narrow rows.
func TestPruneThroughNestAndUnnest(t *testing.T) {
	type namedPlan struct {
		name string
		raw  plan.Op
	}
	var plans []namedPlan
	for _, class := range []tpch.QueryClass{tpch.FlatToNested, tpch.NestedToNested, tpch.NestedToFlat} {
		for level := 0; level <= tpch.MaxLevel; level++ {
			for _, wide := range []bool{false, true} {
				name := fmt.Sprintf("%s/L%d/wide=%t", class, level, wide)
				plans = append(plans, namedPlan{name, unpruned(t, tpch.Query(class, level, wide), tpch.Env(class, level, wide))})
			}
		}
	}
	steps := biomed.Steps()
	envs, _, err := runner.ResolveSteps(steps, biomed.Env())
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range steps {
		plans = append(plans, namedPlan{"biomed/" + st.Name, unpruned(t, st.Expr, envs[i])})
	}

	narrowed := 0
	for _, p := range plans {
		once := plan.Prune(p.raw)
		if got, want := plan.Explain(plan.Prune(once)), plan.Explain(once); got != want {
			t.Errorf("%s: pruning twice differs from pruning once:\n%s\nvs\n%s", p.name, got, want)
		}
		if got, want := fmt.Sprint(once.Columns()), fmt.Sprint(p.raw.Columns()); got != want {
			t.Errorf("%s: pruned plan yields %s, want %s", p.name, got, want)
		}
		walk(once, func(o plan.Op) {
			n, ok := o.(*plan.Nest)
			if !ok || !hasAddIndex(n.In) {
				return
			}
			deps := plan.IDDepsOf(n.In)
			for i, c := range n.GroupCols {
				for j, k := range n.GroupCols {
					if i != j && slices.Contains(deps[c], k) {
						t.Errorf("%s: %s keeps key column $%d, which key column $%d determines", p.name, n.Describe(), c, k)
					}
				}
			}
			if len(n.CarryCols) > 0 {
				narrowed++
			}
		})
	}
	if narrowed == 0 {
		t.Error("no Γ carries an outer attribute: the narrowing is not exercised")
	}

	// The narrow level-2 queries read 2–3 attributes per level: with the keys
	// narrowed and μ writing only what is read, nothing wide enters a Γ or ⋈
	// (23 columns before Γ was keyed by the IDs).
	for _, class := range []tpch.QueryClass{tpch.FlatToNested, tpch.NestedToNested, tpch.NestedToFlat} {
		op := plan.Prune(unpruned(t, tpch.Query(class, 2, false), tpch.Env(class, 2, false)))
		walk(op, func(o plan.Op) {
			switch o.(type) {
			case *plan.Nest, *plan.Join:
				for _, in := range o.Children() {
					if w := len(in.Columns()); w > 13 {
						t.Errorf("%s L2: %d-column rows enter %s:\n%s", class, w, o.Describe(), plan.Explain(op))
					}
				}
			}
		})
	}
}

// TestIDDepsThroughFusedJoins: over every statement the standard and the
// shredded route compile for each TPC-H class × level × width, a join that
// writes its projection has one ID dependency per output column, the ones π
// over the plain join has — so an addIndex above it records its ID where the
// join writes it, which plan.Place, running after Fuse, relies on.
func TestIDDepsThroughFusedJoins(t *testing.T) {
	cfg := runner.DefaultConfig()
	fused := 0
	for _, strat := range []runner.Strategy{runner.Standard, runner.Shred} {
		for _, class := range []tpch.QueryClass{tpch.FlatToNested, tpch.NestedToNested, tpch.NestedToFlat} {
			for level := 0; level <= tpch.MaxLevel; level++ {
				for _, wide := range []bool{false, true} {
					cq, err := runner.CompileStep(tpch.Query(class, level, wide), tpch.Env(class, level, wide), strat, cfg, nil, "Q")
					if err != nil {
						t.Fatal(err)
					}
					for _, st := range cq.Stmts {
						walk(st.Plan, func(o plan.Op) {
							j, ok := o.(*plan.Join)
							if !ok || j.Outs == nil {
								return
							}
							fused++
							plain := *j
							plain.Outs = nil
							got, want := plan.IDDepsOf(j), plan.IDDepsOf(&plan.Project{In: &plain, Outs: j.Outs})
							if len(got) != len(j.Columns()) || !reflect.DeepEqual(got, want) {
								t.Errorf("%s L%d wide=%t %s, %s: %s depends on %v, π over the plain join on %v",
									class, level, wide, strat, st.Label, j.Describe(), got, want)
							}
						})
					}
				}
			}
		}
	}
	if fused == 0 {
		t.Fatal("no compiled plan holds a join that writes its projection")
	}
}

// TestPushdownThroughCarriedColumns: a predicate on an outer attribute sinks
// below the structural Γs whether the attribute is a grouping column (pruning
// off) or, keyed by the IDs, a carried one. It stops above addIndex, which
// refuses every push, directly over the Orders scan; the constant is derived
// onto the join's Lineitem side as well.
func TestPushdownThroughCarriedColumns(t *testing.T) {
	raw := unpruned(t, tpch.Query(tpch.FlatToNested, 1, false), tpch.Env(tpch.FlatToNested, 1, false))
	for name, op := range map[string]plan.Op{"grouping column": raw, "carried column": plan.Prune(raw)} {
		c := op.Columns()[0]
		if c.Name != "o_orderkey" {
			t.Fatalf("%s: first output column is %s", name, c.Name)
		}
		pred := &plan.CmpE{Op: nrc.Eq, L: &plan.Col{Idx: 0, Name: c.Name, Typ: c.Type}, R: &plan.ConstE{Val: int64(7), Typ: nrc.IntT}}
		out, st := plan.Optimize(&plan.Select{In: op, Pred: pred})
		var at plan.Op
		walk(out, func(o plan.Op) {
			if s, ok := o.(*plan.Select); ok && at == nil {
				at = s.In
			}
		})
		idx, ok := at.(*plan.AddIndex)
		if !ok {
			t.Fatalf("%s: σ stops above %T, want the addIndex over Orders:\n%s", name, at, plan.Explain(out))
		}
		if scan, ok := idx.In.(*plan.Scan); !ok || scan.Input != "Orders" {
			t.Fatalf("%s: σ sits over %s, want the Orders scan:\n%s", name, idx.In.Describe(), plan.Explain(out))
		}
		if st.JoinSideDerived == 0 {
			t.Errorf("%s: the key constant was not derived onto Lineitem: %s", name, st.String())
		}
	}
}
