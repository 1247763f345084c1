package runner

import (
	"context"
	"strings"
	"testing"

	"github.com/trance-go/trance/internal/plan"
	"github.com/trance-go/trance/internal/testdata"
	"github.com/trance-go/trance/internal/value"
)

// compiledPlans collects every plan tree the artifact executes.
func compiledPlans(cq *Compiled) []plan.Op {
	var out []plan.Op
	if cq.Plan != nil {
		out = append(out, cq.Plan)
	}
	for _, st := range cq.Stmts {
		out = append(out, st.Plan)
	}
	if cq.Unshred != nil {
		out = append(out, cq.Unshred)
	}
	return out
}

func forEachOp(op plan.Op, fn func(plan.Op)) {
	fn(op)
	for _, ch := range op.Children() {
		forEachOp(ch, fn)
	}
}

// narrowInput returns the single input of a row-at-a-time operator, nil for
// wide or leaf operators. These are the operators whose instrumented closures
// record RowsIn, so rows flowing into them must equal the rows their input
// reported flowing out.
func narrowInput(op plan.Op) plan.Op {
	switch x := op.(type) {
	case *plan.Select:
		return x.In
	case *plan.Extend:
		return x.In
	case *plan.Project:
		return x.In
	case *plan.AddIndex:
		return x.In
	case *plan.Unnest:
		return x.In
	}
	return nil
}

// TestAnalyzeRowConservation runs an instrumented execution and checks the
// per-operator counters against the dataflow's own invariants: every narrow
// operator consumed exactly the rows its input produced, the root operator
// produced exactly the rows the result holds, and every wide operator's
// recorded stage resolves against Result.Metrics — which is what makes the
// rendered analyze wall totals agree with the run's stage walls.
func TestAnalyzeRowConservation(t *testing.T) {
	inputs := map[string]value.Bag{"COP": testdata.SmallCOP(), "Part": testdata.SmallPart()}
	cfg := DefaultConfig()
	for _, strat := range []Strategy{Standard, Shred, ShredUnshred, StandardSkew, ShredSkew, ShredUnshredSkew} {
		cq, err := Compile(testdata.RunningExample(), testdata.Env(), strat, cfg)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		a := plan.NewAnalysis()
		res := ExecuteInputs(context.Background(), []*Compiled{cq}, inputs, NewRunContext(cfg, strat), ExecOptions{Analysis: a})
		if res.Failed() {
			t.Fatalf("%s: %v", strat, res.Err)
		}
		if res.Analyze != a {
			t.Fatalf("%s: Result.Analyze not wired through", strat)
		}

		stages := map[string]bool{}
		for _, st := range res.Metrics.StageWall {
			stages[st.Stage] = true
		}
		chains, wides := 0, 0
		for _, p := range compiledPlans(cq) {
			forEachOp(p, func(op plan.Op) {
				ns := a.Lookup(op)
				if ns == nil {
					return
				}
				if ns.Stage != "" {
					wides++
					if !stages[ns.Stage] {
						t.Errorf("%s: %s recorded stage %q absent from Result.Metrics stage walls",
							strat, op.Describe(), ns.Stage)
					}
				}
				in := narrowInput(op)
				if in == nil {
					return
				}
				child := a.Lookup(in)
				if child == nil {
					return
				}
				chains++
				if got, want := ns.RowsIn.Load(), child.RowsOut.Load(); got != want {
					t.Errorf("%s: %s consumed %d rows but its input %s produced %d",
						strat, op.Describe(), got, in.Describe(), want)
				}
			})
		}
		if chains == 0 {
			t.Fatalf("%s: no narrow chains were instrumented — conservation check is vacuous", strat)
		}

		// The last executed plan's root feeds the result verbatim.
		rootPlan := cq.Plan
		if cq.Unshred != nil {
			rootPlan = cq.Unshred
		} else if rootPlan == nil && len(cq.Stmts) > 0 {
			rootPlan = cq.Stmts[len(cq.Stmts)-1].Plan
		}
		out := res.Output
		if out == nil && cq.Mat != nil {
			out = res.Shredded[cq.Mat.TopName]
		}
		if ns := a.Lookup(rootPlan); ns != nil && out != nil {
			if got, want := ns.RowsOut.Load(), out.Count(); got != want {
				t.Errorf("%s: root reported %d rows, result holds %d", strat, got, want)
			}
		}
		t.Logf("%s: %d narrow chains conserved, %d wide stages resolved", strat, chains, wides)
	}
}

// TestExplainAnalyzeRendering checks the analyzed explain text carries the
// runtime annotations and the execution footer, and that a result from an
// uninstrumented run degrades to an explicit notice instead of bare output.
func TestExplainAnalyzeRendering(t *testing.T) {
	inputs := map[string]value.Bag{"COP": testdata.SmallCOP(), "Part": testdata.SmallPart()}
	cfg := DefaultConfig()
	cq, err := Compile(testdata.RunningExample(), testdata.Env(), Standard, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := plan.NewAnalysis()
	res := ExecuteInputs(context.Background(), []*Compiled{cq}, inputs, NewRunContext(cfg, Standard), ExecOptions{Analysis: a})
	if res.Failed() {
		t.Fatal(res.Err)
	}
	text := res.ExplainAnalyze()
	for _, want := range []string{"=== plan (analyzed) ===", "[actual_rows=", "execution: wall="} {
		if !strings.Contains(text, want) {
			t.Fatalf("analyzed explain missing %q:\n%s", want, text)
		}
	}

	plain := ExecuteInputs(context.Background(), []*Compiled{cq}, inputs, NewRunContext(cfg, Standard), ExecOptions{})
	if plain.Failed() {
		t.Fatal(plain.Err)
	}
	if got := plain.ExplainAnalyze(); !strings.Contains(got, "no runtime statistics") {
		t.Fatalf("uninstrumented result should say so:\n%s", got)
	}
}

// TestAnalyzeOffLeavesNoTrace: the default Execute path must not allocate or
// attach any analysis state.
func TestAnalyzeOffLeavesNoTrace(t *testing.T) {
	inputs := map[string]value.Bag{"COP": testdata.SmallCOP(), "Part": testdata.SmallPart()}
	cfg := DefaultConfig()
	cq, err := Compile(testdata.RunningExample(), testdata.Env(), Standard, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := ExecuteInputs(context.Background(), []*Compiled{cq}, inputs, NewRunContext(cfg, Standard), ExecOptions{})
	if res.Failed() {
		t.Fatal(res.Err)
	}
	if res.Analyze != nil {
		t.Fatal("analyze-off run carries an Analysis")
	}
}
