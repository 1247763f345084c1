package runner

import (
	"context"
	"fmt"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/trance-go/trance/internal/dataflow"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/plan"
	"github.com/trance-go/trance/internal/stats"
	"github.com/trance-go/trance/internal/testdata"
	"github.com/trance-go/trance/internal/tpch"
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
	for _, strat := range []Strategy{Standard, Shred, StandardSkew, ShredSkew} {
		cq, err := CompileStep(testdata.RunningExample(), testdata.Env(), strat, cfg, nil, "Q")
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		a := plan.NewAnalysis()
		res := ExecuteBags(context.Background(), []*Compiled{cq}, inputs, NewRunContext(cfg), ExecOptions{Analysis: a})
		if res.Failed() {
			t.Fatalf("%s: %v", strat, res.Err)
		}
		rows := res.Output.Count()
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
		if got, want := a.Lookup(cq.OutputPlan()).RowsOut.Load(), rows; got != want {
			t.Errorf("%s: root reported %d rows, result holds %d", strat, got, want)
		}
		t.Logf("%s: %d narrow chains conserved, %d staged operators resolved", strat, chains, wides)
	}
}

// TestExplainAnalyzeRendering checks the analyzed explain text carries the
// runtime annotations and the execution footer — the bytes the wide operators
// annotate as shuffled add up to the run's — and that a result from an
// uninstrumented run degrades to an explicit notice instead of bare output.
func TestExplainAnalyzeRendering(t *testing.T) {
	inputs := map[string]value.Bag{"COP": testdata.SmallCOP(), "Part": testdata.SmallPart()}
	cfg := DefaultConfig()
	cfg.BroadcastLimit = 0 // every join exchanges both sides
	cq, err := CompileStep(testdata.RunningExample(), testdata.Env(), Standard, cfg, nil, "Q")
	if err != nil {
		t.Fatal(err)
	}
	a := plan.NewAnalysis()
	res := ExecuteBags(context.Background(), []*Compiled{cq}, inputs, NewRunContext(cfg), ExecOptions{Analysis: a})
	if res.Failed() {
		t.Fatal(res.Err)
	}
	text := res.ExplainAnalyze()
	for _, want := range []string{"=== plan (analyzed) ===", "[actual_rows=", "execution: wall="} {
		if !strings.Contains(text, want) {
			t.Fatalf("analyzed explain missing %q:\n%s", want, text)
		}
	}
	var annotated int64
	ops, _, _ := strings.Cut(text, "execution:")
	for _, m := range regexp.MustCompile(` shuffled=(\d+)B[ \]]`).FindAllStringSubmatch(ops, -1) {
		b, _ := strconv.ParseInt(m[1], 10, 64)
		annotated += b
	}
	if want := fmt.Sprintf("execution: wall=%s shuffled=%dB", res.Elapsed.Round(time.Microsecond), res.Metrics.ShuffleBytes); res.Metrics.ShuffleBytes == 0 || annotated != res.Metrics.ShuffleBytes || !strings.Contains(text, want) {
		t.Fatalf("operators annotate %dB shuffled, the run %dB (want %q):\n%s", annotated, res.Metrics.ShuffleBytes, want, text)
	}
	// A wide operator's wall is the sum of every stage under its base name: a
	// shuffle join's exchanges (join#k/L, join#k/R) and an exchanged Γ's
	// reduce (nest#k/reduce) included; an unnest adds its closures' wall.
	lines := strings.Split(ops, "\n")
	var wide, split int
	var walk func(op plan.Op)
	walk = func(op plan.Op) {
		for _, ch := range op.Children() {
			walk(ch)
		}
		ns := a.Lookup(op)
		if ns == nil || ns.Stage == "" {
			return
		}
		sum, stages := ns.Wall(), 0
		for _, st := range res.Metrics.StageWall {
			if base, _, _ := strings.Cut(st.Stage, "/"); base == ns.Stage {
				sum += st.Wall
				stages++
			}
		}
		head := fmt.Sprintf("%s [actual_rows=%d ", op.Describe(), ns.RowsOut.Load())
		want := fmt.Sprintf(" wall=%s", sum.Round(time.Microsecond))
		reads := func(l string) bool {
			return strings.Contains(l, head) && (strings.Contains(l, want+" ") || strings.Contains(l, want+"]"))
		}
		if !slices.ContainsFunc(lines, reads) {
			t.Errorf("%s (stage %s) does not read%s, the sum of its %d stages:\n%s", op.Describe(), ns.Stage, want, stages, text)
		}
		wide++
		if stages > 1 {
			split++
		}
	}
	for _, st := range cq.Stmts {
		walk(st.Plan)
	}
	if wide == 0 || split == 0 {
		t.Fatalf("%d wide operators, %d of them over several stages; want some of each:\n%s", wide, split, text)
	}

	plain := ExecuteBags(context.Background(), []*Compiled{cq}, inputs, NewRunContext(cfg), ExecOptions{})
	if plain.Failed() {
		t.Fatal(plain.Err)
	}
	if got := plain.ExplainAnalyze(); !strings.Contains(got, "no runtime statistics") {
		t.Fatalf("uninstrumented result should say so:\n%s", got)
	}
}

// TestExplainAnalyzeCombined: the nested-to-flat Γ+, which exchanges, reads
// [combined] and, analyzed, combined=IN→OUT — the rows its source partitions
// folded and the partial rows they shipped, which are the rows its exchange
// moved — and its wall sums its /combine stage with its exchange and reduce.
func TestExplainAnalyzeCombined(t *testing.T) {
	tables := tpch.Generate(tpch.Config{Customers: 30, OrdersPerCustomer: 3, LinesPerOrder: 4, Parts: 10, Seed: 1})
	inputs := map[string]value.Bag{"NDB": tpch.BuildNested(tables, 2, true), "Part": tables.Part}
	cfg := DefaultConfig()
	cq, err := CompileStep(tpch.Query(tpch.NestedToFlat, 2, false), tpch.Env(tpch.NestedToFlat, 2, false), Standard, cfg, nil, "Q")
	if err != nil {
		t.Fatal(err)
	}
	a := plan.NewAnalysis()
	res := ExecuteBags(context.Background(), []*Compiled{cq}, inputs, NewRunContext(cfg), ExecOptions{Analysis: a})
	if res.Failed() {
		t.Fatal(res.Err)
	}
	root, ok := cq.Stmts[0].Plan.(*plan.Nest)
	if !ok || !root.Combine {
		t.Fatalf("the root is not a combined Γ+:\n%s", cq.Explain())
	}
	ns := a.Lookup(root)
	in, out := ns.CombinedIn.Load(), ns.CombinedOut.Load()
	if out == 0 || in <= out || out != res.Metrics.ShuffleRecords {
		t.Fatalf("combined %d→%d rows, the run shipped %d", in, out, res.Metrics.ShuffleRecords)
	}
	var wall time.Duration
	var combined bool
	for _, st := range res.Metrics.StageWall {
		base, side, _ := strings.Cut(st.Stage, "/")
		if base == ns.Stage {
			wall += st.Wall
			combined = combined || side == "combine"
		}
	}
	text := res.ExplainAnalyze()
	line := fmt.Sprintf("%s [actual_rows=%d wall=%s combined=%d→%d shuffled=", root.Describe(), ns.RowsOut.Load(), wall.Round(time.Microsecond), in, out)
	if !combined || !strings.Contains(root.Describe(), " [combined]") || !strings.Contains(text, line) {
		t.Fatalf("want a %s/combine stage and the line\n%s\nin\n%s", ns.Stage, line, text)
	}
}

// TestAnalyzeOffLeavesNoTrace: the default Execute path must not allocate or
// attach any analysis state.
func TestAnalyzeOffLeavesNoTrace(t *testing.T) {
	inputs := map[string]value.Bag{"COP": testdata.SmallCOP(), "Part": testdata.SmallPart()}
	cfg := DefaultConfig()
	cq, err := CompileStep(testdata.RunningExample(), testdata.Env(), Standard, cfg, nil, "Q")
	if err != nil {
		t.Fatal(err)
	}
	res := ExecuteBags(context.Background(), []*Compiled{cq}, inputs, NewRunContext(cfg), ExecOptions{})
	if res.Failed() {
		t.Fatal(res.Err)
	}
	if res.Analyze != nil {
		t.Fatal("analyze-off run carries an Analysis")
	}
}

// TestAnalyzeFusedJoins: EXPLAIN ANALYZE reads a join that writes its
// projection the way it read the π above the plain join. Running the plans as
// they were before plan.Fuse, every join reports the same actual_rows — which
// are also the rows of the π or ext that was folded into it — the q-error
// block lists the same joins with the same estimates, and instrumented,
// uninstrumented and unfused runs return the same rows in the same order.
func TestAnalyzeFusedJoins(t *testing.T) {
	tables := tpch.Generate(tpch.Config{Customers: 20, OrdersPerCustomer: 3, LinesPerOrder: 3, Parts: 10, Seed: 1})
	env := tpch.Env(tpch.NestedToNested, 2, false)
	inputs := map[string]value.Bag{"NDB": tpch.BuildNested(tables, 2, true), "Part": tables.Part}
	cfg := DefaultConfig()
	ests := map[string]plan.TableEstimate{}
	for name, typ := range env {
		ests[name] = stats.Collect(inputs[name], typ.(nrc.BagType), stats.Options{}).Estimate()
	}
	type joinAt struct {
		join   *plan.Join
		parent plan.Op
	}
	joinsOf := func(root plan.Op) (out []joinAt) {
		var walk func(op, parent plan.Op)
		walk = func(op, parent plan.Op) {
			if j, ok := op.(*plan.Join); ok {
				out = append(out, joinAt{j, parent})
			}
			for _, ch := range op.Children() {
				walk(ch, op)
			}
		}
		walk(root, nil)
		return out
	}
	for _, strat := range []Strategy{Standard, Shred, StandardSkew} {
		cq, err := CompileStep(tpch.Query(tpch.NestedToNested, 2, false), env, strat, cfg, ests, "Q")
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		// Co-location reads through π as through a join's Outs, so both plans
		// reduce the same Γs in place and place their rows alike.
		unfused := *cq
		unfused.Stmts = nil
		for _, st := range cq.Stmts {
			st.Plan = st.unfused
			unfused.Stmts = append(unfused.Stmts, unfused.place(st, unfused.bound(nil)))
		}
		run := func(cq *Compiled, a *plan.Analysis) []dataflow.Row {
			res := ExecuteBags(context.Background(), []*Compiled{cq}, inputs, NewRunContext(cfg), ExecOptions{Analysis: a})
			if res.Failed() {
				t.Fatalf("%s: %v", strat, res.Err)
			}
			return res.Output.CollectSorted()
		}
		fusedStats, unfusedStats := plan.NewAnalysis(), plan.NewAnalysis()
		rows := run(cq, fusedStats)
		for what, other := range map[string][]dataflow.Row{"analyze off": run(cq, nil), "unfused plans": run(&unfused, unfusedStats)} {
			if len(rows) == 0 || !slices.EqualFunc(rows, other, func(a, b dataflow.Row) bool { return value.Equal(value.Tuple(a), value.Tuple(b)) }) {
				t.Fatalf("%s: %d rows analyzed, %d with %s, or they differ", strat, len(rows), len(other), what)
			}
		}

		folded, estimated := 0, 0
		for i, st := range cq.Stmts {
			was := joinsOf(unfused.Stmts[i].Plan)
			for k, at := range joinsOf(st.Plan) {
				got := fusedStats.Lookup(at.join).RowsOut.Load()
				if want := unfusedStats.Lookup(was[k].join).RowsOut.Load(); got != want {
					t.Errorf("%s, %s: %s reports %d rows, %d before fusion", strat, st.Label, at.join.Describe(), got, want)
				}
				if at.join.Outs == nil {
					continue
				}
				folded++
				if want := unfusedStats.Lookup(was[k].parent).RowsOut.Load(); got != want {
					t.Errorf("%s, %s: %s reports %d rows, the %s it folded reported %d", strat, st.Label, at.join.Describe(), got, was[k].parent.Describe(), want)
				}
			}
			qs, wasQs := plan.QErrors(st.Plan, fusedStats), plan.QErrors(unfused.Stmts[i].Plan, unfusedStats)
			if len(qs) != len(wasQs) {
				t.Fatalf("%s, %s: %d q-error lines, %d before fusion", strat, st.Label, len(qs), len(wasQs))
			}
			for k := range qs {
				estimated++
				if qs[k].Est != wasQs[k].Est || qs[k].Actual != wasQs[k].Actual {
					t.Errorf("%s, %s: q-error of %s is est=%d actual=%d, before fusion est=%d actual=%d",
						strat, st.Label, qs[k].Node, qs[k].Est, qs[k].Actual, wasQs[k].Est, wasQs[k].Actual)
				}
			}
		}
		// Shredded component scans carry no statistics: no join above them is
		// estimated (docs/COSTMODEL.md).
		if folded == 0 || estimated == 0 && !strat.IsShredded() {
			t.Fatalf("%s: %d fused joins, %d q-error lines — nothing compared", strat, folded, estimated)
		}
	}
}

// TestExplainFusionIsNotAnOptimizerChange: a plan only plan.Fuse changed prints
// once, fused, as unchanged by the optimizer; one the optimizer changed prints
// the raw plan before and the fused plan after.
func TestExplainFusionIsNotAnOptimizerChange(t *testing.T) {
	cfg := DefaultConfig()
	cq, err := CompileStep(tpch.Query(tpch.NestedToNested, 2, false), tpch.Env(tpch.NestedToNested, 2, false), Standard, cfg, nil, "Q")
	if err != nil {
		t.Fatal(err)
	}
	text := cq.Explain()
	if !strings.Contains(text, "=== plan (unchanged by optimizer) ===") || strings.Count(text, " out[c_custkey") != 1 || strings.Contains(text, "\n  ext ") {
		t.Fatalf("want one fused plan under \"unchanged by optimizer\":\n%s", text)
	}
	cq, err = CompileStep(tpch.NestedToFlatSelective(2), tpch.Env(tpch.NestedToFlat, 2, false), Standard, cfg, nil, "Q")
	if err != nil {
		t.Fatal(err)
	}
	before, after, ok := strings.Cut(cq.Explain(), "=== plan (after optimizer) ===")
	if !ok || !strings.Contains(before, "=== plan (before optimizer) ===") || strings.Contains(before, "=R[0] out[") || !strings.Contains(after, "=R[0] out[") {
		t.Fatalf("want the raw plan before and the fused plan after:\n%s", cq.Explain())
	}
}
