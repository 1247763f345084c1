package runner

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/trance-go/trance/internal/dataflow"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/testdata"
	"github.com/trance-go/trance/internal/value"
)

func TestStrategyNames(t *testing.T) {
	names := map[Strategy]string{
		Standard:      "STANDARD",
		SparkSQLStyle: "SPARK-SQL",
		Shred:         "SHRED",
		ShredUnshred:  "SHRED+UNSHRED",
		ShredSkew:     "SHRED-SKEW",
	}
	for s, want := range names {
		if s.String() != want {
			t.Fatalf("%d: got %s want %s", s, s, want)
		}
	}
	if !Shred.IsShredded() || Standard.IsShredded() {
		t.Fatal("IsShredded wrong")
	}
	if !ShredSkew.skewAware() || Shred.skewAware() {
		t.Fatal("skewAware wrong")
	}
	if !ShredUnshred.unshreds() || Shred.unshreds() {
		t.Fatal("unshreds wrong")
	}
}

func TestRunReportsCompileErrors(t *testing.T) {
	q := nrc.ForIn("x", nrc.V("Missing"), nrc.SingOf(nrc.Record("a", nrc.C(1))))
	res := RunProgram([]nrc.Assignment{{Name: "Q", Expr: q}}, nrc.Env{}, nil, Standard, DefaultConfig(), nil)
	if !res.Failed() {
		t.Fatal("unbound input must fail")
	}
}

func TestRunShredExposesMaterializedProgram(t *testing.T) {
	inputs := map[string]value.Bag{"COP": testdata.SmallCOP(), "Part": testdata.SmallPart()}
	res := RunProgram([]nrc.Assignment{{Name: "Q", Expr: testdata.RunningExample()}}, testdata.Env(), inputs, Shred, DefaultConfig(), nil)
	if res.Failed() {
		t.Fatal(res.Err)
	}
	if res.Mat == nil || len(res.Mat.Dicts) != 2 {
		t.Fatalf("materialized metadata missing: %+v", res.Mat)
	}
	if res.Shredded[res.Mat.TopName] == nil {
		t.Fatal("top bag dataset missing")
	}
	for _, d := range res.Mat.Dicts {
		if res.Shredded[d.Name] == nil {
			t.Fatalf("dictionary %s dataset missing", d.Name)
		}
	}
}

func TestPipelineFailurePropagates(t *testing.T) {
	steps := []nrc.Assignment{
		{Name: "S1", Expr: nrc.ForIn("x", nrc.V("R"), nrc.SingOf(nrc.Record("a", nrc.P(nrc.V("x"), "a"))))},
		{Name: "S2", Expr: nrc.ForIn("x", nrc.V("Nope"), nrc.SingOf(nrc.Record("a", nrc.P(nrc.V("x"), "a"))))},
	}
	env := nrc.Env{"R": nrc.BagOf(nrc.Tup("a", nrc.IntT))}
	inputs := map[string]value.Bag{"R": {value.Tuple{int64(1)}}}
	res := RunProgram(steps, env, inputs, Standard, DefaultConfig(), nil)
	if !res.Failed() || res.FailedStep != 1 {
		t.Fatalf("expected failure at step 1, got %d / %v", res.FailedStep, res.Err)
	}
	// The whole pipeline compiles before anything executes, so a malformed
	// later step fails the run without burning time on earlier steps.
	if len(res.StepElapsed) != 0 {
		t.Fatalf("no step should have executed: %v", res.StepElapsed)
	}
}

func TestPipelineDuplicateStepName(t *testing.T) {
	mk := func() nrc.Expr {
		return nrc.ForIn("x", nrc.V("R"), nrc.SingOf(nrc.Record("a", nrc.P(nrc.V("x"), "a"))))
	}
	steps := []nrc.Assignment{{Name: "S1", Expr: mk()}, {Name: "S1", Expr: mk()}}
	env := nrc.Env{"R": nrc.BagOf(nrc.Tup("a", nrc.IntT))}
	res := RunProgram(steps, env, map[string]value.Bag{"R": {}}, Standard, DefaultConfig(), nil)
	if !res.Failed() || res.FailedStep != 1 {
		t.Fatalf("duplicate step name must fail at step 1: %d / %v", res.FailedStep, res.Err)
	}
}

// A pipeline under an unshredding strategy keeps intermediate results
// shredded and unshreds only the final output, which must agree with the
// standard route.
func TestPipelineShredUnshredFinalStep(t *testing.T) {
	env := nrc.Env{"R": nrc.BagOf(nrc.Tup(
		"k", nrc.IntT,
		"items", nrc.BagOf(nrc.Tup("v", nrc.IntT)),
	))}
	inputs := map[string]value.Bag{"R": {
		value.Tuple{int64(1), value.Bag{value.Tuple{int64(10)}, value.Tuple{int64(3)}}},
		value.Tuple{int64(2), value.Bag{}},
	}}
	mkSteps := func() []nrc.Assignment {
		return []nrc.Assignment{
			{Name: "Big", Expr: nrc.ForIn("r", nrc.V("R"),
				nrc.SingOf(nrc.Record(
					"k", nrc.P(nrc.V("r"), "k"),
					"big", nrc.ForIn("it", nrc.P(nrc.V("r"), "items"),
						nrc.IfThen(nrc.GtOf(nrc.P(nrc.V("it"), "v"), nrc.C(int64(5))),
							nrc.SingOf(nrc.V("it")))))))},
			{Name: "Out", Expr: nrc.ForIn("b", nrc.V("Big"),
				nrc.SingOf(nrc.Record(
					"k2", nrc.P(nrc.V("b"), "k"),
					"big2", nrc.P(nrc.V("b"), "big"))))},
		}
	}
	std := RunProgram(mkSteps(), env, inputs, Standard, DefaultConfig(), nil)
	shr := RunProgram(mkSteps(), env, inputs, ShredUnshred, DefaultConfig(), nil)
	if std.Failed() || shr.Failed() {
		t.Fatalf("std=%v shr=%v", std.Err, shr.Err)
	}
	var a, b value.Bag
	for _, r := range std.Output.CollectSorted() {
		a = append(a, value.Tuple(r))
	}
	for _, r := range shr.Output.CollectSorted() {
		b = append(b, value.Tuple(r))
	}
	if !value.Equal(a, b) {
		t.Fatalf("unshredded pipeline output differs:\n got %s\nwant %s", value.Format(b), value.Format(a))
	}
}

func TestNoColumnPruningStillCorrect(t *testing.T) {
	inputs := map[string]value.Bag{"COP": testdata.SmallCOP(), "Part": testdata.SmallPart()}
	cfg := DefaultConfig()
	cfg.NoColumnPruning = true
	a := RunProgram([]nrc.Assignment{{Name: "Q", Expr: testdata.RunningExample()}}, testdata.Env(), inputs, Standard, cfg, nil)
	b := RunProgram([]nrc.Assignment{{Name: "Q", Expr: testdata.RunningExample()}}, testdata.Env(), inputs, Standard, DefaultConfig(), nil)
	if a.Failed() || b.Failed() {
		t.Fatalf("%v / %v", a.Err, b.Err)
	}
	ab := make(value.Bag, 0)
	for _, r := range a.Output.Collect() {
		ab = append(ab, value.Tuple(r))
	}
	bb := make(value.Bag, 0)
	for _, r := range b.Output.Collect() {
		bb = append(bb, value.Tuple(r))
	}
	if !value.Equal(ab, bb) {
		t.Fatal("pruning changed results")
	}
	if a.Metrics.ShuffleBytes < b.Metrics.ShuffleBytes {
		t.Fatal("pruning should not increase shuffle volume")
	}
}

// Compile once, execute twice (different contexts): results must match the
// one-shot Run and each other, proving compiled artifacts carry no per-run
// state.
func TestCompileOnceExecuteMany(t *testing.T) {
	inputs := map[string]value.Bag{"COP": testdata.SmallCOP(), "Part": testdata.SmallPart()}
	cfg := DefaultConfig()
	for _, strat := range []Strategy{Standard, ShredUnshred} {
		cq, err := CompileStep(testdata.RunningExample(), testdata.Env(), strat, cfg, nil, "Q")
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		want := RunProgram([]nrc.Assignment{{Name: "Q", Expr: testdata.RunningExample()}}, testdata.Env(), inputs, strat, cfg, nil)
		if want.Failed() {
			t.Fatalf("%s run: %v", strat, want.Err)
		}
		for i := 0; i < 2; i++ {
			res := ExecuteBags(context.Background(), []*Compiled{cq}, inputs, NewRunContext(cfg), ExecOptions{})
			if res.Failed() {
				t.Fatalf("%s execute %d: %v", strat, i, res.Err)
			}
			if got, exp := bagOfRows(res.Output.Collect()), bagOfRows(want.Output.Collect()); !value.Equal(got, exp) {
				t.Fatalf("%s execute %d differs from Run:\n got %s\nwant %s",
					strat, i, value.Format(got), value.Format(exp))
			}
		}
	}
}

func bagOfRows(rows []dataflow.Row) value.Bag {
	out := make(value.Bag, 0, len(rows))
	for _, r := range rows {
		out = append(out, value.Tuple(r))
	}
	return out
}

// Malformed input data (a raw Go int is not a value-model scalar) used to
// panic a partition task and kill the process; it must now degrade to
// Result.Err.
func TestExecutePanicBecomesError(t *testing.T) {
	env := nrc.Env{"R": nrc.BagOf(nrc.Tup("a", nrc.IntT))}
	q := nrc.ForIn("x", nrc.V("R"),
		nrc.SingOf(nrc.Record("b", nrc.AddOf(nrc.P(nrc.V("x"), "a"), nrc.C(int64(1))))))
	bad := map[string]value.Bag{"R": {value.Tuple{int(7)}}}
	res := RunProgram([]nrc.Assignment{{Name: "Q", Expr: q}}, env, bad, Standard, DefaultConfig(), nil)
	if !res.Failed() {
		t.Fatal("malformed input data must fail the run, not crash or succeed")
	}
	if !strings.Contains(res.Err.Error(), "panic") {
		t.Fatalf("error should mention the recovered panic: %v", res.Err)
	}
}

// Cancelling the context aborts a shredded execution between statements.
func TestExecuteHonorsCancellation(t *testing.T) {
	inputs := map[string]value.Bag{"COP": testdata.SmallCOP(), "Part": testdata.SmallPart()}
	cq, err := CompileStep(testdata.RunningExample(), testdata.Env(), Shred, DefaultConfig(), nil, "Q")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := ExecuteBags(ctx, []*Compiled{cq}, inputs, NewRunContext(DefaultConfig()), ExecOptions{})
	if !res.Failed() || !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", res.Err)
	}
}
