package runner

import (
	"context"
	"strings"
	"testing"

	"github.com/trance-go/trance/internal/plan"
	"github.com/trance-go/trance/internal/testdata"
	"github.com/trance-go/trance/internal/value"
)

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

// stagedOp reports whether the operator materializes under a dataflow stage
// of its own, which its stats slot must name (⊎ concatenates without one).
func stagedOp(op plan.Op) bool {
	switch op.(type) {
	case *plan.Unnest, *plan.Join, *plan.Nest, *plan.DedupOp, *plan.BagToDict:
		return true
	}
	return false
}

// TestAnalyzeRowConservation runs an instrumented execution under every
// strategy and holds every operator of every executed statement to the
// dataflow's own invariants: it has a stats slot that recorded output rows,
// every narrow operator consumed exactly the rows its input produced, every
// operator with a stage of its own names one that resolves against
// Result.Metrics — which is what makes the rendered analyze wall totals agree
// with the run's stage walls — and the root operator produced exactly the rows
// the result holds.
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
		for _, st := range cq.Stmts {
			forEachOp(st.Plan, func(op plan.Op) {
				ns := a.Lookup(op)
				if ns == nil {
					t.Errorf("%s: %s: %s has no stats slot", strat, st.Label, op.Describe())
					return
				}
				if ns.RowsOut.Load() == 0 {
					t.Errorf("%s: %s: %s recorded no output rows", strat, st.Label, op.Describe())
				}
				if stagedOp(op) {
					wides++
					if !stages[ns.Stage] {
						t.Errorf("%s: %s: %s recorded stage %q absent from Result.Metrics stage walls",
							strat, st.Label, op.Describe(), ns.Stage)
					}
				}
				in := narrowInput(op)
				if in == nil || a.Lookup(in) == nil {
					return // a missing child slot is reported at the child
				}
				chains++
				if got, want := ns.RowsIn.Load(), a.Lookup(in).RowsOut.Load(); got != want {
					t.Errorf("%s: %s: %s consumed %d rows but its input %s produced %d",
						strat, st.Label, op.Describe(), got, in.Describe(), want)
				}
			})
		}
		if chains == 0 || wides == 0 {
			t.Fatalf("%s: %d narrow chains, %d staged operators — conservation check is vacuous", strat, chains, wides)
		}

		// The output plan's root feeds the result verbatim.
		if got, want := a.Lookup(cq.OutputPlan()).RowsOut.Load(), res.Output.Count(); got != want {
			t.Errorf("%s: root reported %d rows, result holds %d", strat, got, want)
		}
		t.Logf("%s: %d narrow chains conserved, %d staged operators resolved", strat, chains, wides)
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
