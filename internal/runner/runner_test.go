package runner

import (
	"context"
	"errors"
	"slices"
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
		StandardSkew:  "STANDARD-SKEW",
		ShredSkew:     "SHRED-SKEW",
		Auto:          "AUTO",
	}
	for s, want := range names {
		if s.String() != want {
			t.Fatalf("%d: got %s want %s", s, s, want)
		}
	}
	if all := AllStrategies(); len(all) != len(names)-1 || slices.Contains(all, Auto) {
		t.Fatalf("AllStrategies %v: want the %d routes but Auto", all, len(names)-1)
	}
	if !Shred.IsShredded() || Standard.IsShredded() {
		t.Fatal("IsShredded wrong")
	}
	if !ShredSkew.SkewAware() || Shred.SkewAware() {
		t.Fatal("skewAware wrong")
	}
	// Every name the CLI and HTTP APIs accept parses; the paper's
	// Shred+Unshred series names the shredded routes read nested.
	parses := map[string]Strategy{
		"standard": Standard, "sparksql": SparkSQLStyle, "shred": Shred, "shred+unshred": Shred,
		"standard-skew": StandardSkew, "shred-skew": ShredSkew, "shred+unshred-skew": ShredSkew, "auto": Auto,
	}
	for name, want := range parses {
		if got, ok := ParseStrategy(name); !ok || got != want {
			t.Fatalf("ParseStrategy(%q) = %s, %t; want %s", name, got, ok, want)
		}
	}
	for _, name := range []string{"", "shred+unshred+unshred", "unshred", "SHRED"} {
		if s, ok := ParseStrategy(name); ok {
			t.Fatalf("ParseStrategy(%q) = %s, want no strategy", name, s)
		}
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
	// Top reads the same run shredded: the top bag's rows under its own
	// columns, a label in place of each inner bag, beside Output's nested rows.
	top := res.Top()
	if top == res || top.Output.Count() != res.Output.Count() || len(top.Columns) != len(res.Columns) {
		t.Fatalf("Top: %d rows under %v, Output %d rows under %v", top.Output.Count(), top.Columns, res.Output.Count(), res.Columns)
	}
	for i, c := range top.Columns {
		_, nested := res.Columns[i].Type.(nrc.BagType)
		if _, label := c.Type.(nrc.LabelType); nested != label {
			t.Fatalf("column %d: top %s %s, nested %s %s", i, c.Name, c.Type, res.Columns[i].Name, res.Columns[i].Type)
		}
	}
	if again := top.Top(); again != top {
		t.Fatal("Top of a Top view is another view")
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

// A pipeline on a shredded route keeps intermediate results shredded and
// stitches only the final output, which must agree with the standard route.
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
	shr := RunProgram(mkSteps(), env, inputs, Shred, DefaultConfig(), nil)
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
	for _, r := range a.Output.CollectSorted() {
		ab = append(ab, value.Tuple(r))
	}
	bb := make(value.Bag, 0)
	for _, r := range b.Output.CollectSorted() {
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
	for _, strat := range []Strategy{Standard, Shred} {
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
			if got, exp := bagOfRows(res.Output.CollectSorted()), bagOfRows(want.Output.CollectSorted()); !value.Equal(got, exp) {
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
