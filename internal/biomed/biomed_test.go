package biomed

import (
	"context"
	"testing"

	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/runner"
	"github.com/trance-go/trance/internal/value"
)

func TestGenerateShapes(t *testing.T) {
	data := Generate(SmallConfig())
	if len(data["Occurrences"]) != 30 || len(data["Samples"]) != 30 {
		t.Fatalf("sample counts wrong: %d occ, %d samples", len(data["Occurrences"]), len(data["Samples"]))
	}
	if len(data["SOImpact"]) != 4 {
		t.Fatalf("SOImpact should be tiny, got %d", len(data["SOImpact"]))
	}
	// Occurrences must be two-level nested.
	first := data["Occurrences"][0].(value.Tuple)
	muts := first[1].(value.Bag)
	if len(muts) == 0 {
		t.Fatal("sample without mutations")
	}
	if _, ok := muts[0].(value.Tuple)[3].(value.Bag); !ok {
		t.Fatal("mutations must carry candidate bags")
	}
}

func TestStepsTypeCheck(t *testing.T) {
	scope := Env()
	for _, st := range Steps() {
		ty, err := nrc.Check(st.Expr, scope)
		if err != nil {
			t.Fatalf("%s: %v", st.Name, err)
		}
		scope[st.Name] = ty
	}
	// The final output must be flat (no unshredding needed — paper Fig. 9).
	if !nrc.IsFlatBag(scope["Step5"]) {
		t.Fatalf("Step5 must be flat, got %s", scope["Step5"])
	}
}

// oraclePipeline evaluates all steps with the local evaluator.
func oraclePipeline(t *testing.T, inputs map[string]value.Bag) value.Bag {
	t.Helper()
	scope := Env()
	var s *nrc.Scope
	for name, b := range inputs {
		s = s.Bind(name, b)
	}
	var last value.Value
	for _, st := range Steps() {
		ty, err := nrc.Check(st.Expr, scope)
		if err != nil {
			t.Fatalf("%s: %v", st.Name, err)
		}
		last = nrc.Eval(st.Expr, s)
		s = s.Bind(st.Name, last)
		scope[st.Name] = ty
	}
	return last.(value.Bag)
}

func TestPipelineStrategiesMatchOracle(t *testing.T) {
	cfg := SmallConfig()
	cfg.Samples = 8
	cfg.Genes = 20
	inputs := Generate(cfg)
	want := oraclePipeline(t, inputs)

	rcfg := runner.DefaultConfig()
	rcfg.Parallelism = 4
	for _, strat := range []runner.Strategy{runner.Standard, runner.SparkSQLStyle, runner.Shred} {
		res := runProgram(Steps(), Env(), inputs, strat, rcfg)
		if res.Failed() {
			t.Fatalf("%s failed at step %d: %v", strat, res.FailedStep, res.Err)
		}
		if len(res.StepElapsed) != 5 {
			t.Fatalf("%s: want 5 step timings, got %d", strat, len(res.StepElapsed))
		}
		got := make(value.Bag, 0)
		for _, r := range res.Output.CollectSorted() {
			got = append(got, value.Tuple(r))
		}
		if !approxEqualBags(got, want, 1e-9) {
			t.Fatalf("%s pipeline output differs from oracle:\n got %s\nwant %s",
				strat, value.Format(got), value.Format(want))
		}
	}
}

// approxEqualBags compares bags of flat tuples with a relative tolerance on
// floats: distributed sums accumulate in a different order than the local
// evaluator, so exact float equality cannot be expected.
func approxEqualBags(a, b value.Bag, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(v value.Value) string { return value.Key(v.(value.Tuple)[0]) }
	idx := map[string]value.Tuple{}
	for _, e := range b {
		idx[key(e)] = e.(value.Tuple)
	}
	for _, e := range a {
		at := e.(value.Tuple)
		bt, ok := idx[key(e)]
		if !ok || len(at) != len(bt) {
			return false
		}
		for i := range at {
			af, aIsF := at[i].(float64)
			bf, bIsF := bt[i].(float64)
			if aIsF && bIsF {
				diff := af - bf
				if diff < 0 {
					diff = -diff
				}
				scale := 1.0
				if bf > 1 || bf < -1 {
					scale = bf
					if scale < 0 {
						scale = -scale
					}
				}
				if diff > tol*scale {
					return false
				}
				continue
			}
			if !value.Equal(at[i], bt[i]) {
				return false
			}
		}
	}
	return true
}

func TestPipelineShredShufflesLess(t *testing.T) {
	inputs := Generate(SmallConfig())
	rcfg := runner.DefaultConfig()
	rcfg.BroadcastLimit = 0
	std := runProgram(Steps(), Env(), inputs, runner.Standard, rcfg)
	shr := runProgram(Steps(), Env(), inputs, runner.Shred, rcfg)
	if std.Failed() || shr.Failed() {
		t.Fatalf("pipeline failed: %v / %v", std.Err, shr.Err)
	}
	if shr.Metrics.ShuffleBytes >= std.Metrics.ShuffleBytes {
		t.Fatalf("shred should shuffle less on E2E: shred=%d standard=%d",
			shr.Metrics.ShuffleBytes, std.Metrics.ShuffleBytes)
	}
}

// runProgram compiles a program through runner, planning without
// statistics, and runs it over nested inputs.
func runProgram(steps []nrc.Assignment, env nrc.Env, inputs map[string]value.Bag, strat runner.Strategy, cfg runner.Config) *runner.Result {
	envs, _, err := runner.ResolveSteps(steps, env)
	if err != nil {
		return runner.Failure(strat, err)
	}
	prog := make([]*runner.Compiled, len(steps))
	for i, st := range steps {
		eff := runner.StepStrategy(strat, prog[0])
		if prog[i], err = runner.CompileStep(st.Expr, envs[i], eff, cfg, nil, st.Name); err != nil {
			return runner.Failure(strat, err)
		}
	}
	dctx := runner.NewRunContext(cfg)
	rows, idxs, err := runner.NewInputs(inputs, env).Bind(prog, dctx.Parallelism)
	if err != nil {
		return runner.Failure(strat, err)
	}
	return runner.Execute(context.Background(), prog, rows, idxs, dctx, runner.ExecOptions{})
}
