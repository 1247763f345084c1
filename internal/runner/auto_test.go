package runner_test

import (
	"context"
	"strings"
	"testing"

	"github.com/trance-go/trance/internal/metrics"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/plan"
	"github.com/trance-go/trance/internal/runner"
	"github.com/trance-go/trance/internal/stats"
	"github.com/trance-go/trance/internal/value"
)

// flatEnv: R{k,v} joined with S{k,name} — the flat join the skew signal
// drives; the nested env carries an inner bag for the shred signal.
func flatAutoEnv() nrc.Env {
	return nrc.Env{
		"R": nrc.BagOf(nrc.Tup("k", nrc.IntT, "v", nrc.IntT)),
		"S": nrc.BagOf(nrc.Tup("k", nrc.IntT, "name", nrc.StringT)),
	}
}

// flatAutoData builds R with nR rows (60% sharing k=0 when skewed, uniform
// keys otherwise) and a small S covering the key range.
func flatAutoData(nR int, skewed bool) (value.Bag, value.Bag) {
	r := make(value.Bag, nR)
	for i := range r {
		k := int64(i % 500)
		if skewed && i%5 < 3 {
			k = 0
		}
		r[i] = value.Tuple{k, int64(i)}
	}
	s := make(value.Bag, 100)
	for i := range s {
		s[i] = value.Tuple{int64(i * 5), "n" + string(rune('a'+i%26))}
	}
	return r, s
}

func flatJoinQuery() nrc.Expr {
	return nrc.ForIn("r", nrc.V("R"),
		nrc.ForIn("s", nrc.V("S"),
			nrc.IfThen(nrc.EqOf(nrc.P(nrc.V("r"), "k"), nrc.P(nrc.V("s"), "k")),
				nrc.SingOf(nrc.Record("k", nrc.P(nrc.V("r"), "k"), "name", nrc.P(nrc.V("s"), "name"))))))
}

func nestedAutoEnv() nrc.Env {
	return nrc.Env{"RN": nrc.BagOf(nrc.Tup("k", nrc.IntT, "items", nrc.BagOf(nrc.Tup("v", nrc.IntT))))}
}

func nestedAutoData(n int, skewed bool) value.Bag {
	out := make(value.Bag, n)
	for i := range out {
		k := int64(i)
		if skewed && i%5 < 3 {
			k = 0
		}
		items := value.Bag{value.Tuple{int64(i)}, value.Tuple{int64(i + 1)}}
		out[i] = value.Tuple{k, items}
	}
	return out
}

// selectiveNestedQuery filters RN on a highly selective key predicate; the
// pushed-down selection over the nested input is the shred-route signal.
func selectiveNestedQuery() nrc.Expr {
	return nrc.ForIn("r", nrc.V("RN"),
		nrc.IfThen(nrc.EqOf(nrc.P(nrc.V("r"), "k"), nrc.C(5)),
			nrc.SingOf(nrc.Record("k", nrc.P(nrc.V("r"), "k"), "items", nrc.P(nrc.V("r"), "items")))))
}

func collectStats(t testing.TB, env nrc.Env, inputs map[string]value.Bag, par int) map[string]plan.TableEstimate {
	t.Helper()
	out := map[string]plan.TableEstimate{}
	for name, b := range inputs {
		bt := env[name].(nrc.BagType)
		out[name] = stats.Collect(b, bt, stats.Options{Parallelism: par}).Estimate()
	}
	return out
}

// TestAutoPicksRoute drives the Auto strategy across the dataset/query pairs
// of the decision matrix and checks the route the cost model chooses.
func TestAutoPicksRoute(t *testing.T) {
	cfg := runner.DefaultConfig()
	cfg.Parallelism = 4

	t.Run("uniform flat → standard", func(t *testing.T) {
		r, s := flatAutoData(4000, false)
		ests := collectStats(t, flatAutoEnv(), map[string]value.Bag{"R": r, "S": s}, cfg.Parallelism)
		cq, err := runner.CompileStep(flatJoinQuery(), flatAutoEnv(), runner.Auto, cfg, ests, "Q")
		if err != nil {
			t.Fatal(err)
		}
		if cq.Strategy != runner.Standard || cq.Requested != runner.Auto {
			t.Fatalf("chose %s (requested %s), want STANDARD", cq.Strategy, cq.Requested)
		}
	})

	t.Run("skewed flat → standard-skew", func(t *testing.T) {
		r, s := flatAutoData(4000, true)
		ests := collectStats(t, flatAutoEnv(), map[string]value.Bag{"R": r, "S": s}, cfg.Parallelism)
		cq, err := runner.CompileStep(flatJoinQuery(), flatAutoEnv(), runner.Auto, cfg, ests, "Q")
		if err != nil {
			t.Fatal(err)
		}
		if cq.Strategy != runner.StandardSkew {
			t.Fatalf("chose %s, want STANDARD-SKEW; reasons: %v", cq.Strategy, cq.AutoReasons)
		}
		if len(cq.AutoReasons) == 0 || !strings.Contains(cq.AutoReasons[0], "heavy-key fraction") {
			t.Fatalf("reasons missing the skew signal: %v", cq.AutoReasons)
		}
	})

	t.Run("selective nested → shred+unshred", func(t *testing.T) {
		rn := nestedAutoData(400, false)
		ests := collectStats(t, nestedAutoEnv(), map[string]value.Bag{"RN": rn}, cfg.Parallelism)
		cq, err := runner.CompileStep(selectiveNestedQuery(), nestedAutoEnv(), runner.Auto, cfg, ests, "Q")
		if err != nil {
			t.Fatal(err)
		}
		if cq.Strategy != runner.Shred {
			t.Fatalf("chose %s, want SHRED (replying nested, shred+unshred); reasons: %v", cq.Strategy, cq.AutoReasons)
		}
	})

	t.Run("skewed selective nested → shred+unshred-skew", func(t *testing.T) {
		rn := nestedAutoData(4000, true)
		ests := collectStats(t, nestedAutoEnv(), map[string]value.Bag{"RN": rn}, cfg.Parallelism)
		// The hot key collapses k's NDV; filter on it still estimates
		// selectively enough (1/NDV of the residual keys ≪ threshold).
		cq, err := runner.CompileStep(selectiveNestedQuery(), nestedAutoEnv(), runner.Auto, cfg, ests, "Q")
		if err != nil {
			t.Fatal(err)
		}
		if cq.Strategy != runner.ShredSkew {
			t.Fatalf("chose %s, want SHRED-SKEW (replying nested, shred+unshred-skew); reasons: %v", cq.Strategy, cq.AutoReasons)
		}
	})

	t.Run("no statistics → standard", func(t *testing.T) {
		cq, err := runner.CompileStep(flatJoinQuery(), flatAutoEnv(), runner.Auto, cfg, nil, "Q")
		if err != nil {
			t.Fatal(err)
		}
		if cq.Strategy != runner.Standard {
			t.Fatalf("chose %s without stats, want STANDARD", cq.Strategy)
		}
		if len(cq.AutoReasons) == 0 || !strings.Contains(cq.AutoReasons[0], "no statistics") {
			t.Fatalf("reasons = %v", cq.AutoReasons)
		}
	})

	// The cost model's ablation is compiling without statistics: the data
	// that picks standard-skew with them resolves to Standard.
	t.Run("ablated cost model → standard", func(t *testing.T) {
		r, s := flatAutoData(4000, true)
		ests := collectStats(t, flatAutoEnv(), map[string]value.Bag{"R": r, "S": s}, cfg.Parallelism)
		for _, c := range []struct {
			stats map[string]plan.TableEstimate
			want  runner.Strategy
		}{{ests, runner.StandardSkew}, {nil, runner.Standard}} {
			cq, err := runner.CompileStep(flatJoinQuery(), flatAutoEnv(), runner.Auto, cfg, c.stats, "Q")
			if err != nil {
				t.Fatal(err)
			}
			if cq.Strategy != c.want {
				t.Fatalf("chose %s with %d inputs' statistics, want %s", cq.Strategy, len(c.stats), c.want)
			}
		}
	})
}

// TestAutoFallsBackWhenShredFails: groupBy cannot compile through the
// shredded route; when Auto picks it anyway (selective predicate on a nested
// input), compilation must fall back to the standard variant, not fail.
func TestAutoFallsBackWhenShredFails(t *testing.T) {
	rn := nestedAutoData(400, false)
	cfg := runner.DefaultConfig()
	cfg.Parallelism = 4
	ests := collectStats(t, nestedAutoEnv(), map[string]value.Bag{"RN": rn}, cfg.Parallelism)
	q := nrc.GroupByOf(
		nrc.ForIn("r", nrc.V("RN"),
			nrc.IfThen(nrc.EqOf(nrc.P(nrc.V("r"), "k"), nrc.C(5)),
				nrc.SingOf(nrc.Record("k", nrc.P(nrc.V("r"), "k"), "n", nrc.C(1))))),
		"k")
	cq, err := runner.CompileStep(q, nestedAutoEnv(), runner.Auto, cfg, ests, "Q")
	if err != nil {
		t.Fatalf("auto compile failed instead of falling back: %v", err)
	}
	if cq.Strategy != runner.Standard {
		t.Fatalf("fell back to %s, want STANDARD; reasons: %v", cq.Strategy, cq.AutoReasons)
	}
	found := false
	for _, r := range cq.AutoReasons {
		if strings.Contains(r, "falling back") {
			found = true
		}
	}
	if !found {
		t.Fatalf("fallback not recorded in reasons: %v", cq.AutoReasons)
	}
	// The fallback artifact must actually run.
	res := runner.ExecuteBags(context.Background(), []*runner.Compiled{cq}, map[string]value.Bag{"RN": rn}, runner.NewRunContext(cfg), runner.ExecOptions{})
	if res.Err != nil {
		t.Fatalf("fallback execution failed: %v", res.Err)
	}
}

// TestAutoExplainShowsChoice: the Explain of an Auto compilation names the
// chosen route and the reasons.
func TestAutoExplainShowsChoice(t *testing.T) {
	r, s := flatAutoData(4000, true)
	cfg := runner.DefaultConfig()
	cfg.Parallelism = 4
	ests := collectStats(t, flatAutoEnv(), map[string]value.Bag{"R": r, "S": s}, cfg.Parallelism)
	cq, err := runner.CompileStep(flatJoinQuery(), flatAutoEnv(), runner.Auto, cfg, ests, "Q")
	if err != nil {
		t.Fatal(err)
	}
	text := cq.Explain()
	if !strings.Contains(text, "strategy: STANDARD-SKEW (auto-selected)") {
		t.Fatalf("explain missing auto-selected strategy line:\n%s", text)
	}
	if !strings.Contains(text, "auto: input R: heavy-key fraction") {
		t.Fatalf("explain missing auto reason line:\n%s", text)
	}
}

// TestAutoCountersAdvance: compile-time Auto resolutions are counted by
// chosen route.
func TestAutoCountersAdvance(t *testing.T) {
	before := metrics.Values()["auto_strategy.standard"]
	cfg := runner.DefaultConfig()
	if _, err := runner.CompileStep(flatJoinQuery(), flatAutoEnv(), runner.Auto, cfg, nil, "Q"); err != nil {
		t.Fatal(err)
	}
	if after := metrics.Values()["auto_strategy.standard"]; after != before+1 {
		t.Fatalf("standard counter %d → %d, want +1", before, after)
	}
}

// TestAutoOptimizesStandardPlanOnce: Auto reads the optimized standard plan to
// choose, and a standard route then runs that same plan — so compiling under
// Auto moves the process-wide optimizer counters exactly as compiling under
// Standard does, and by what the compilation itself reports.
func TestAutoOptimizesStandardPlanOnce(t *testing.T) {
	r, s := flatAutoData(4000, false)
	cfg := runner.DefaultConfig()
	ests := collectStats(t, flatAutoEnv(), map[string]value.Bag{"R": r, "S": s}, 4)
	// One pushable conjunct beside the join condition.
	query := func() nrc.Expr {
		return nrc.ForIn("r", nrc.V("R"),
			nrc.ForIn("s", nrc.V("S"),
				nrc.IfThen(nrc.AndOf(
					nrc.EqOf(nrc.P(nrc.V("r"), "k"), nrc.P(nrc.V("s"), "k")),
					nrc.GtOf(nrc.P(nrc.V("r"), "v"), nrc.C(10))),
					nrc.SingOf(nrc.Record("k", nrc.P(nrc.V("r"), "k"), "name", nrc.P(nrc.V("s"), "name"))))))
	}
	deltas := func(strat runner.Strategy) (map[string]int64, *runner.Compiled) {
		before := metrics.Values()
		cq, err := runner.CompileStep(query(), flatAutoEnv(), strat, cfg, ests, "Q")
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]int64{}
		for path, n := range metrics.Values() {
			if strings.HasPrefix(path, "optimizer.") {
				out[path] = n - before[path]
			}
		}
		return out, cq
	}
	std, _ := deltas(runner.Standard)
	auto, cq := deltas(runner.Auto)
	if cq.Strategy != runner.Standard {
		t.Fatalf("auto chose %s, want STANDARD", cq.Strategy)
	}
	if std["optimizer.predicates_pushed"] == 0 {
		t.Fatal("vacuous: the standard compilation pushed nothing")
	}
	for path, want := range std {
		if auto[path] != want {
			t.Errorf("%s: auto moved it by %d, standard by %d", path, auto[path], want)
		}
	}
	if got := auto["optimizer.predicates_pushed"]; got != cq.Opt.PredicatesPushed {
		t.Errorf("optimizer.predicates_pushed moved by %d, the compilation reports %d", got, cq.Opt.PredicatesPushed)
	}
}

// BenchmarkAutoStrategy compares Auto against the manual routes on a skewed
// shuffle join — both sides exceed the broadcast limit, so the heavy key
// saturates one partition unless the skew-aware operators split it. Auto must
// track the best manual strategy (it resolves to the skew-aware route at
// compile time) and beat the worst. Compare with benchstat; compilation and
// statistics collection stay outside the timer.
func BenchmarkAutoStrategy(b *testing.B) {
	// R: 20000 rows, 90% on the hot key. S: 3000 rows over 300 keys (~90 KB,
	// over the 64 KB broadcast limit, so the join must shuffle; hot-key fanout
	// 10). Under a plain hash shuffle one partition carries ~90% of the join
	// output; the skew-aware route keeps the heavy rows in place and broadcasts
	// their matches instead.
	r := make(value.Bag, 20000)
	for i := range r {
		k := int64(1 + i%299)
		if i%10 < 9 {
			k = 0
		}
		r[i] = value.Tuple{k, int64(i)}
	}
	s := make(value.Bag, 3000)
	for i := range s {
		s[i] = value.Tuple{int64(i % 300), "name-of-supplier-" + string(rune('a'+i%26))}
	}
	env := flatAutoEnv()
	inputs := map[string]value.Bag{"R": r, "S": s}
	cfg := runner.DefaultConfig()
	cfg.Parallelism = 8
	ests := collectStats(b, env, inputs, cfg.Parallelism)

	for _, strat := range []runner.Strategy{runner.Standard, runner.StandardSkew, runner.Shred, runner.Auto} {
		b.Run(strat.CLIName(), func(b *testing.B) {
			cq, err := runner.CompileStep(flatJoinQuery(), env, strat, cfg, ests, "Q")
			if err != nil {
				b.Fatal(err)
			}
			rows, idxs, err := runner.NewInputs(inputs, cq.Env).Bind([]*runner.Compiled{cq}, runner.NewRunContext(cfg).Parallelism)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := runner.Execute(context.Background(), []*runner.Compiled{cq}, rows, idxs, runner.NewRunContext(cfg), runner.ExecOptions{})
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		})
	}
}

// TestAutoProgramKeepsOneRoute: Auto resolves once per program. The second
// step alone would pick the shredded route (a selective pushed predicate on
// the nested RN), but it reads the first step's output, which the first step's
// standard route left bound as a nested dataset — so it must follow that route
// rather than scan shredded components nothing bound.
func TestAutoProgramKeepsOneRoute(t *testing.T) {
	env := nrc.Env{"R": flatAutoEnv()["R"], "RN": nestedAutoEnv()["RN"]}
	r, _ := flatAutoData(400, false)
	inputs := map[string]value.Bag{"R": r, "RN": nestedAutoData(400, false)}
	steps := func() []nrc.Assignment {
		return []nrc.Assignment{
			{Name: "P", Expr: nrc.ForIn("r", nrc.V("R"), nrc.SingOf(nrc.V("r")))},
			{Name: "Out", Expr: nrc.ForIn("n", nrc.V("RN"),
				nrc.IfThen(nrc.EqOf(nrc.P(nrc.V("n"), "k"), nrc.C(5)),
					nrc.ForIn("p", nrc.V("P"),
						nrc.IfThen(nrc.EqOf(nrc.P(nrc.V("p"), "k"), nrc.P(nrc.V("n"), "k")),
							nrc.SingOf(nrc.Record("k", nrc.P(nrc.V("n"), "k"), "v", nrc.P(nrc.V("p"), "v")))))))},
		}
	}
	cfg := runner.DefaultConfig()
	cfg.Parallelism = 4
	ests := collectStats(t, env, inputs, cfg.Parallelism)

	alone, err := runner.CompileStep(steps()[1].Expr, nrc.Env{"P": env["R"], "RN": env["RN"]}, runner.Auto, cfg, ests, "Out")
	if err != nil {
		t.Fatal(err)
	}
	if !alone.Strategy.IsShredded() {
		t.Fatalf("vacuous: the second step on its own resolves to %s, not a shredded route", alone.Strategy)
	}
	want := runner.RunProgram(steps(), env, inputs, runner.Standard, cfg, ests)
	got := runner.RunProgram(steps(), env, inputs, runner.Auto, cfg, ests)
	if want.Failed() || got.Failed() {
		t.Fatalf("standard: %v; auto: %v", want.Err, got.Err)
	}
	if got.Strategy != runner.Standard {
		t.Fatalf("auto program ran its last step on %s, want the first step's STANDARD", got.Strategy)
	}
	if a, b := collectRows(got), collectRows(want); len(a) != 1 || !value.Equal(a, b) {
		t.Fatalf("auto program: %s, standard: %s", value.Format(a), value.Format(b))
	}
}

func collectRows(res *runner.Result) value.Bag {
	out := value.Bag{}
	for _, r := range res.Output.CollectSorted() {
		out = append(out, value.Tuple(r))
	}
	return out
}
