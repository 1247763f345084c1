// Benchmarks reproducing the evaluation of "Scalable Querying of Nested
// Data" (Section 6). One benchmark per paper figure; each prints the same
// series the paper plots (strategy × configuration, with F = FAIL entries
// for runs that crash under the simulated per-worker memory cap) plus the
// shuffle totals behind the paper's shuffle-ratio claims.
//
// Run with:
//
//	go test -bench=. -benchmem -benchtime=1x
//
// TRANCE_SCALE=small|medium grows the generated datasets.
package trance_test

import (
	"context"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/trance-go/trance"
	"github.com/trance-go/trance/internal/biomed"
	"github.com/trance-go/trance/internal/index"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/plan"
	"github.com/trance-go/trance/internal/runner"
	"github.com/trance-go/trance/internal/stats"
	"github.com/trance-go/trance/internal/tpch"
	"github.com/trance-go/trance/internal/value"
)

// scaled returns n multiplied by the TRANCE_SCALE factor.
func scaled(n int) int {
	switch os.Getenv("TRANCE_SCALE") {
	case "medium":
		return n * 8
	case "small":
		return n * 2
	default:
		return n
	}
}

func tpchConfig(skew int) tpch.Config {
	return tpch.Config{
		Customers:         scaled(150),
		OrdersPerCustomer: 6,
		LinesPerOrder:     4,
		Parts:             scaled(100),
		SkewFactor:        skew,
		Seed:              1,
	}
}

// benchConfig sizes the simulated cluster so that the paper's failure
// boundaries reproduce: the cap is a fraction of the dataset footprint, so
// strategies that concentrate or duplicate data blow past it while evenly
// distributed strategies stay under.
func benchConfig(inputBytes int64) runner.Config {
	cfg := runner.DefaultConfig()
	cfg.Parallelism = 8
	cfg.MaxPartitionBytes = inputBytes / 3
	cfg.BroadcastLimit = 64 << 10
	return cfg
}

func inputBytes(inputs map[string]value.Bag) int64 {
	var total int64
	for _, b := range inputs {
		total += value.Size(b)
	}
	return total
}

// runProgram compiles a program through runner, as a session's plan-cache
// loop does but without the cache or statistics, and runs it over nested
// inputs: the paper benchmarks plan without statistics (the cost-model
// ablation), and their timed runs include compilation and input conversion.
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
	if cfg.Workers > 0 {
		dctx.Pool = trance.NewPool(cfg.Workers)
	}
	return runner.Execute(context.Background(), prog, rows, idxs, dctx, runner.ExecOptions{}).Materialized()
}

// runQuery is runProgram over the query's one step.
func runQuery(q nrc.Expr, env nrc.Env, inputs map[string]value.Bag, strat runner.Strategy, cfg runner.Config) *runner.Result {
	return runProgram([]nrc.Assignment{{Name: "Q", Expr: q}}, env, inputs, strat, cfg)
}

// benchCatalog registers inputs, each under its type in env, in a fresh
// catalog.
func benchCatalog(b *testing.B, env nrc.Env, inputs map[string]value.Bag) *trance.Catalog {
	b.Helper()
	cat := trance.NewCatalog()
	for name, bag := range inputs {
		if err := cat.Register(name, env[name], bag); err != nil {
			b.Fatal(err)
		}
	}
	return cat
}

type cell struct {
	res    *runner.Result
	stitch time.Duration // what reading the run nested added to its runtime
}

func (c cell) String() string {
	if c.res.Failed() {
		return "      F"
	}
	return fmt.Sprintf("%7.0f", float64((c.res.Elapsed+c.stitch).Microseconds())/1000)
}

// series names a figure's columns: one per strategy, two for a shredded one —
// read nested (the paper's Shred+Unshred), then as it ran (Shred).
func series(strategies []runner.Strategy) []string {
	var out []string
	for _, s := range strategies {
		if s.IsShredded() {
			out = append(out, strings.Replace(s.String(), "SHRED", "SHRED+UNSHRED", 1))
		}
		out = append(out, s.String())
	}
	return out
}

// cells is a run's cells in a figure, in series order: a shredded run is read
// nested first — its runtime counting the stitch, which runs as the rows are
// read and is free for a flat output (paper: "the unshredding cost for flat
// outputs is zero"), which has no dictionary — then as it ran.
func cells(strat runner.Strategy, res *runner.Result) []cell {
	c := cell{res: res}
	if !strat.IsShredded() {
		return []cell{c}
	}
	nested := c
	if !res.Failed() && len(res.Mat.Dicts) > 0 {
		start := time.Now()
		res.Output.CollectSorted()
		nested.stitch = time.Since(start)
	}
	return []cell{nested, c}
}

func (c cell) shuffle() string {
	if c.res.Failed() {
		return "      F"
	}
	return fmt.Sprintf("%7.1f", float64(c.res.Metrics.ShuffleBytes)/1024)
}

// fig7 runs one width variant of the Figure 7 grid: three query classes ×
// nesting levels 0–4 × four series (three strategies, the shredded one read
// both ways).
func fig7(b *testing.B, wide bool) {
	tables := tpch.Generate(tpchConfig(0))
	strategies := []runner.Strategy{runner.Shred, runner.Standard, runner.SparkSQLStyle}

	for n := 0; n < b.N; n++ {
		fmt.Printf("\n%-18s %-7s", "variant", "level")
		for _, s := range series(strategies) {
			fmt.Printf(" %14s", s)
		}
		fmt.Println("   (ms runtime | KiB shuffled; F = FAIL)")
		for _, class := range []tpch.QueryClass{tpch.FlatToNested, tpch.NestedToNested, tpch.NestedToFlat} {
			for level := 0; level <= tpch.MaxLevel; level++ {
				q := tpch.Query(class, level, wide)
				env := tpch.Env(class, level, wide)
				inputs := map[string]value.Bag{}
				if class == tpch.FlatToNested {
					inputs = tables.Inputs()
				} else {
					inputs["NDB"] = tpch.BuildNested(tables, level, true)
					inputs["Part"] = tables.Part
				}
				cfg := benchConfig(inputBytes(inputs))
				fmt.Printf("%-18s %-7d", class, level)
				for _, strat := range strategies {
					for _, c := range cells(strat, runQuery(q, env, inputs, strat, cfg)) {
						fmt.Printf(" %7s|%-7s", c, c.shuffle())
					}
				}
				fmt.Println()
			}
		}
	}
}

// BenchmarkFig7aNarrow reproduces Figure 7a: the narrow-schema TPC-H grid.
func BenchmarkFig7aNarrow(b *testing.B) { fig7(b, false) }

// BenchmarkFig7bWide reproduces Figure 7b: the wide-schema TPC-H grid.
func BenchmarkFig7bWide(b *testing.B) { fig7(b, true) }

// BenchmarkFig8Skew reproduces Figure 8: the narrow nested-to-nested query
// with two levels of nesting on increasingly skewed datasets (factors 0–4),
// for the skew-unaware and skew-aware variants of each strategy.
func BenchmarkFig8Skew(b *testing.B) {
	strategies := []runner.Strategy{runner.Shred, runner.Standard, runner.ShredSkew, runner.StandardSkew, runner.SparkSQLStyle}
	q := tpch.Query(tpch.NestedToNested, 2, false)
	env := tpch.Env(tpch.NestedToNested, 2, false)

	for n := 0; n < b.N; n++ {
		fmt.Printf("\n%-6s", "skew")
		for _, s := range series(strategies) {
			fmt.Printf(" %18s", s)
		}
		fmt.Println("   (ms runtime | KiB shuffled; F = FAIL)")
		for factor := 0; factor <= 4; factor++ {
			tables := tpch.Generate(tpchConfig(factor))
			inputs := map[string]value.Bag{
				"NDB":  tpch.BuildNested(tables, 2, true),
				"Part": tables.Part,
			}
			cfg := benchConfig(inputBytes(inputs))
			fmt.Printf("%-6d", factor)
			for _, strat := range strategies {
				for _, c := range cells(strat, runQuery(q, env, inputs, strat, cfg)) {
					fmt.Printf(" %9s|%-8s", c, c.shuffle())
				}
			}
			fmt.Println()
		}
	}
}

// BenchmarkFig9Biomed reproduces Figure 9: the five-step biomedical E2E
// pipeline on the small and full datasets for SparkSQL/Standard/Shred. The
// final output is flat, so no unshredding is involved.
func BenchmarkFig9Biomed(b *testing.B) {
	strategies := []runner.Strategy{runner.Shred, runner.Standard, runner.SparkSQLStyle}
	datasets := []struct {
		name string
		cfg  biomed.Config
	}{
		{"small", scaleBiomed(biomed.SmallConfig())},
		{"full", scaleBiomed(biomed.FullConfig())},
	}
	for n := 0; n < b.N; n++ {
		for _, ds := range datasets {
			inputs := biomed.Generate(ds.cfg)
			cfg := benchConfig(inputBytes(inputs))
			// Step 2's join blow-up is the paper's failure point: the cap is
			// tighter relative to the input than in Fig. 7 because the
			// intermediate (gene sets × network edges) dwarfs the input.
			cfg.MaxPartitionBytes = inputBytes(inputs) / 2
			fmt.Printf("\n%s dataset (%d KiB input): per-step ms, F = FAIL at that step\n",
				ds.name, inputBytes(inputs)/1024)
			for _, strat := range strategies {
				res := runProgram(biomed.Steps(), biomed.Env(), inputs, strat, cfg)
				fmt.Printf("%-12s", strat)
				for i, d := range res.StepElapsed {
					if res.Failed() && i == res.FailedStep {
						fmt.Printf("  step%d:      F", i+1)
						continue
					}
					fmt.Printf("  step%d: %6.0f", i+1, float64(d.Microseconds())/1000)
				}
				if res.Failed() && res.FailedStep >= len(res.StepElapsed) {
					fmt.Printf("  step%d:      F", res.FailedStep+1)
				}
				fmt.Printf("   shuffleKiB=%.1f\n", float64(res.Metrics.ShuffleBytes)/1024)
			}
		}
	}
}

func scaleBiomed(c biomed.Config) biomed.Config {
	c.Samples = scaled(c.Samples)
	c.Genes = scaled(c.Genes)
	return c
}

// BenchmarkAblationDomainElimination quantifies the Section 4 domain
// elimination rules: the shredded route with and without them.
func BenchmarkAblationDomainElimination(b *testing.B) {
	tables := tpch.Generate(tpchConfig(0))
	q := tpch.Query(tpch.NestedToNested, 2, false)
	env := tpch.Env(tpch.NestedToNested, 2, false)
	inputs := map[string]value.Bag{
		"NDB":  tpch.BuildNested(tables, 2, true),
		"Part": tables.Part,
	}
	for n := 0; n < b.N; n++ {
		for _, de := range []bool{true, false} {
			cfg := benchConfig(inputBytes(inputs))
			cfg.MaxPartitionBytes = 0
			cfg.DomainElimination = de
			res := runQuery(q, env, inputs, runner.Shred, cfg)
			status := "ok"
			if res.Failed() {
				status = "FAIL: " + res.Err.Error()
			}
			fmt.Printf("domain-elimination=%-5t  %6.0f ms  shuffleKiB=%-8.1f %s\n",
				de, float64(res.Elapsed.Microseconds())/1000,
				float64(res.Metrics.ShuffleBytes)/1024, status)
		}
	}
}

// BenchmarkAblationGuarantees quantifies partitioning-guarantee reuse (the
// mechanism the SparkSQL-style baseline lacks).
func BenchmarkAblationGuarantees(b *testing.B) {
	tables := tpch.Generate(tpchConfig(0))
	q := tpch.Query(tpch.NestedToFlat, 2, false)
	env := tpch.Env(tpch.NestedToFlat, 2, false)
	inputs := map[string]value.Bag{
		"NDB":  tpch.BuildNested(tables, 2, true),
		"Part": tables.Part,
	}
	for n := 0; n < b.N; n++ {
		for _, strat := range []runner.Strategy{runner.Standard, runner.SparkSQLStyle} {
			cfg := benchConfig(inputBytes(inputs))
			cfg.MaxPartitionBytes = 0
			res := runQuery(q, env, inputs, strat, cfg)
			fmt.Printf("%-12s %6.0f ms  stages=%d skipped=%d shuffleKiB=%.1f\n",
				strat, float64(res.Elapsed.Microseconds())/1000,
				res.Metrics.Stages, res.Metrics.SkippedShuffles,
				float64(res.Metrics.ShuffleBytes)/1024)
		}
	}
}

// BenchmarkShuffleTable prints the shuffle-ratio summary behind the paper's
// headline claims (Section 6 bullets).
func BenchmarkShuffleTable(b *testing.B) {
	tables := tpch.Generate(tpchConfig(0))
	for n := 0; n < b.N; n++ {
		for _, row := range []struct {
			name  string
			class tpch.QueryClass
			level int
		}{
			{"flat-to-nested L2", tpch.FlatToNested, 2},
			{"nested-to-nested L2", tpch.NestedToNested, 2},
			{"nested-to-flat L2", tpch.NestedToFlat, 2},
		} {
			q := tpch.Query(row.class, row.level, false)
			env := tpch.Env(row.class, row.level, false)
			inputs := map[string]value.Bag{}
			if row.class == tpch.FlatToNested {
				inputs = tables.Inputs()
			} else {
				inputs["NDB"] = tpch.BuildNested(tables, row.level, true)
				inputs["Part"] = tables.Part
			}
			cfg := benchConfig(inputBytes(inputs))
			cfg.MaxPartitionBytes = 0
			std := runQuery(q, env, inputs, runner.Standard, cfg)
			shr := runQuery(q, env, inputs, runner.Shred, cfg)
			ratio := float64(std.Metrics.ShuffleBytes) / float64(max64(shr.Metrics.ShuffleBytes, 1))
			fmt.Printf("%-22s standard=%8.1fKiB shred=%8.1fKiB ratio=%.1fx\n",
				row.name, float64(std.Metrics.ShuffleBytes)/1024,
				float64(shr.Metrics.ShuffleBytes)/1024, ratio)
		}
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// BenchmarkParallelScaling exercises the pipelined engine's worker pool: the
// TPC-H nested-to-nested query and the biomedical E2E pipeline run the
// identical plan — same partition count — once with Workers=1 (every
// partition task sequential on the caller) and once with Workers=NumCPU.
// Each workload×workers configuration is its own sub-benchmark, so the
// ns/op series are benchstat-comparable. The workload is sized up from the
// figure benches so per-partition compute dominates scheduling overhead.
func BenchmarkParallelScaling(b *testing.B) {
	ncpu := runtime.NumCPU()
	tables := tpch.Generate(tpch.Config{
		Customers:         scaled(2500),
		OrdersPerCustomer: 8,
		LinesPerOrder:     6,
		Parts:             scaled(800),
		Seed:              1,
	})
	q := tpch.Query(tpch.NestedToNested, 2, false)
	env := tpch.Env(tpch.NestedToNested, 2, false)
	inputs := map[string]value.Bag{
		"NDB":  tpch.BuildNested(tables, 2, true),
		"Part": tables.Part,
	}
	bioInputs := biomed.Generate(biomed.Config{
		Samples: scaled(120), Genes: scaled(600),
		MutationsPerSample: 40, CandidatesPerMut: 4,
		EdgesPerGene: 12, Seed: 7,
	})

	cfgFor := func(workers int) runner.Config {
		cfg := runner.DefaultConfig()
		cfg.Parallelism = 4 * ncpu
		cfg.Workers = workers
		cfg.MaxPartitionBytes = 0
		return cfg
	}
	configs := []struct {
		name    string
		workers int
	}{{"workers=1", 1}}
	if ncpu > 1 { // on a single-CPU host the two configs would be identical
		configs = append(configs, struct {
			name    string
			workers int
		}{fmt.Sprintf("workers=%d", ncpu), ncpu})
	}
	for _, w := range configs {
		cfg := cfgFor(w.workers)
		b.Run("tpch-n2n-L2/"+w.name, func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				res := runQuery(q, env, inputs, runner.Standard, cfg)
				if res.Failed() {
					b.Fatalf("tpch failed: %v", res.Err)
				}
			}
		})
		b.Run("biomed-e2e/"+w.name, func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				pres := runProgram(biomed.Steps(), biomed.Env(), bioInputs, runner.Standard, cfg)
				if pres.Failed() {
					b.Fatalf("biomed failed: %v", pres.Err)
				}
			}
		})
	}
}

// BenchmarkRunningExample measures the paper's Example 1 end to end under
// every strategy (sanity series; also validates agreement on each run).
func BenchmarkRunningExample(b *testing.B) {
	tables := tpch.Generate(tpchConfig(0))
	inputs := map[string]value.Bag{
		"NDB":  tpch.BuildNested(tables, 2, true),
		"Part": tables.Part,
	}
	q := tpch.Query(tpch.NestedToNested, 2, false)
	env := tpch.Env(tpch.NestedToNested, 2, false)
	cfg := benchConfig(inputBytes(inputs))
	cfg.MaxPartitionBytes = 0
	var expect value.Bag
	for n := 0; n < b.N; n++ {
		for _, strat := range []runner.Strategy{runner.Standard, runner.Shred} {
			res := runQuery(q, env, inputs, strat, cfg)
			if res.Failed() {
				b.Fatalf("%s failed: %v", strat, res.Err)
			}
			got := make(value.Bag, 0)
			for _, r := range res.Output.CollectSorted() {
				got = append(got, value.Tuple(r))
			}
			if expect == nil {
				if _, err := nrc.Check(q, env); err != nil {
					b.Fatal(err)
				}
			} else if !value.Equal(got, expect) {
				b.Fatalf("%s disagrees with previous strategy", strat)
			}
			expect = got
		}
		expect = nil
	}
}

// BenchmarkPreparedVsUnprepared measures what a reused SessionQuery
// amortizes: the unprepared path empties the plan cache and prepares the query
// AST afresh in a new session on every evaluation — re-running typechecking,
// (shredded) compilation and plan pruning — the prepared path prepares once
// and only executes. Both read the same catalog generation, whose converted
// inputs the catalog caches. Compare the sub-benchmarks with benchstat.
func BenchmarkPreparedVsUnprepared(b *testing.B) {
	// Small enough that compilation is a visible share of end-to-end latency
	// (the serving regime: many fast queries over cached data).
	tables := tpch.Generate(tpch.Config{
		Customers: scaled(20), OrdersPerCustomer: 6, LinesPerOrder: 4,
		Parts: scaled(50), Seed: 1,
	})
	const level = 1
	cat := benchCatalog(b, tpch.Env(tpch.NestedToNested, level, false), map[string]value.Bag{
		"NDB":  tpch.BuildNested(tables, level, true),
		"Part": tables.Part,
	})
	cfg := runner.DefaultConfig()

	for _, strat := range []runner.Strategy{runner.Standard, runner.Shred} {
		b.Run("unprepared/"+strat.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				trance.ResetPlanCache()
				sq, err := cat.NewSession(trance.SessionOptions{Config: &cfg}).PrepareNamed("", tpch.Query(tpch.NestedToNested, level, false))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sq.Run(context.Background(), strat); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("prepared/"+strat.String(), func(b *testing.B) {
			sq, err := cat.NewSession(trance.SessionOptions{Config: &cfg}).PrepareNamed("bench/nested-to-nested", tpch.Query(tpch.NestedToNested, level, false))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sq.Run(context.Background(), strat); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sq.Run(context.Background(), strat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPushdownAblation measures the rule-based optimizer's predicate
// pushdown (runner.Config.NoPredicatePushdown ablation) on selective
// queries: the TPC-H nested-to-flat query with retail-price and quantity
// guards (tpch.NestedToFlatSelective) and the biomedical burden aggregation
// with sift/score guards (biomed.SelectiveBurden). In both, the guards
// compile to residual selections above the final join; the optimizer pushes
// them below the join — and, on the shredded route, into the dictionary
// scans — so the join and shuffle process a fraction of the rows. Compile
// time and input conversion sit outside the timed region; compare
// pushdown=on vs pushdown=off with benchstat.
func BenchmarkPushdownAblation(b *testing.B) {
	tables := tpch.Generate(tpchConfig(0))
	cases := []struct {
		name   string
		mk     func() trance.Expr
		env    nrc.Env
		inputs map[string]value.Bag
	}{
		{
			name: "tpch-selective-n2f-l2",
			mk:   func() trance.Expr { return tpch.NestedToFlatSelective(2) },
			env:  tpch.Env(tpch.NestedToFlat, 2, false),
			inputs: map[string]value.Bag{
				"NDB":  tpch.BuildNested(tables, 2, true),
				"Part": tables.Part,
			},
		},
		{
			name:   "biomed-selective-burden",
			mk:     biomed.SelectiveBurden,
			env:    biomed.Env(),
			inputs: biomed.Generate(biomed.FullConfig()),
		},
	}
	for _, c := range cases {
		for _, strat := range []runner.Strategy{runner.Standard, runner.Shred} {
			for _, pushdown := range []bool{true, false} {
				mode := "on"
				if !pushdown {
					mode = "off"
				}
				b.Run(fmt.Sprintf("%s/%s/pushdown=%s", c.name, strat, mode), func(b *testing.B) {
					cfg := benchConfig(inputBytes(c.inputs))
					cfg.MaxPartitionBytes = 0
					cfg.NoPredicatePushdown = !pushdown
					cq, err := runner.CompileStep(c.mk(), c.env, strat, cfg, nil, "Q")
					if err != nil {
						b.Fatal(err)
					}
					rows, idxs, err := runner.NewInputs(c.inputs, cq.Env).Bind([]*runner.Compiled{cq}, runner.NewRunContext(cfg).Parallelism)
					if err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						res := runner.Execute(context.Background(), []*runner.Compiled{cq}, rows, idxs, runner.NewRunContext(cfg), runner.ExecOptions{}).Materialized()
						if res.Failed() {
							b.Fatal(res.Err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkSelectiveNarrow measures the narrow σ/ext/π chain — the row
// interpreter, fused per partition — on a flat selective scan and on the same
// selective queries as the pushdown ablation: after pushdown, their guards
// sit directly above the scans as narrow selections (and the burden query
// adds an arithmetic extension), so interpreter dispatch is most of the work.
// Compile time and input conversion sit outside the timed region.
func BenchmarkSelectiveNarrow(b *testing.B) {
	tables := tpch.Generate(tpchConfig(0))
	// The flat scan case gets a larger Lineitem: at the shared config's 3.6K
	// rows per-run fixed costs drown the per-row work it exists to measure.
	flatCfg := tpchConfig(0)
	flatCfg.Customers = scaled(2000)
	flatTables := tpch.Generate(flatCfg)
	cases := []struct {
		name   string
		mk     func() trance.Expr
		env    nrc.Env
		inputs map[string]value.Bag
	}{
		{
			name:   "tpch-flat-selective",
			mk:     tpch.FlatSelective,
			env:    tpch.FlatEnv(),
			inputs: map[string]value.Bag{"Lineitem": flatTables.Lineitem},
		},
		{
			name: "tpch-selective-n2f-l2",
			mk:   func() trance.Expr { return tpch.NestedToFlatSelective(2) },
			env:  tpch.Env(tpch.NestedToFlat, 2, false),
			inputs: map[string]value.Bag{
				"NDB":  tpch.BuildNested(tables, 2, true),
				"Part": tables.Part,
			},
		},
		{
			name:   "biomed-selective-burden",
			mk:     biomed.SelectiveBurden,
			env:    biomed.Env(),
			inputs: biomed.Generate(biomed.FullConfig()),
		},
	}
	for _, c := range cases {
		for _, strat := range []runner.Strategy{runner.Standard, runner.Shred} {
			b.Run(fmt.Sprintf("%s/%s", c.name, strat), func(b *testing.B) {
				cfg := benchConfig(inputBytes(c.inputs))
				cfg.MaxPartitionBytes = 0
				cq, err := runner.CompileStep(c.mk(), c.env, strat, cfg, nil, "Q")
				if err != nil {
					b.Fatal(err)
				}
				rows, idxs, err := runner.NewInputs(c.inputs, cq.Env).Bind([]*runner.Compiled{cq}, runner.NewRunContext(cfg).Parallelism)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res := runner.Execute(context.Background(), []*runner.Compiled{cq}, rows, idxs, runner.NewRunContext(cfg), runner.ExecOptions{}).Materialized()
					if res.Failed() {
						b.Fatal(res.Err)
					}
				}
			})
		}
	}
}

// BenchmarkParse measures the textual query parser (internal/parse) on the
// largest TPC-H text fixture — the cost a serving process pays before the
// plan cache takes over. Parsing sits at microseconds per query, noise next
// to compilation (compare BenchmarkTextQueryEndToEnd's first-run column).
func BenchmarkParse(b *testing.B) {
	matches, err := filepath.Glob(filepath.Join("internal", "parse", "testdata", "tpch-*.nrc"))
	if err != nil || len(matches) == 0 {
		b.Fatalf("no fixtures: %v", err)
	}
	var src, name string
	for _, m := range matches {
		data, err := os.ReadFile(m)
		if err != nil {
			b.Fatal(err)
		}
		if len(data) > len(src) {
			src, name = string(data), filepath.Base(m)
		}
	}
	b.Logf("largest fixture %s: %d bytes", name, len(src))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trance.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTextQueryEndToEnd compares serving a query from its text form
// against the builder-AST prepared path. "text" re-parses and re-prepares
// the text per request — the plan cache dedupes compilation and the session
// shares input conversion, so the delta over "builder" is parse + catalog
// resolve, which a server amortizes away by caching the prepared text as
// tranced does; "builder" is the existing prepared hot path — binding data
// once and only executing — which must be unchanged by the parser
// subsystem. Compare with benchstat.
func BenchmarkTextQueryEndToEnd(b *testing.B) {
	tables := tpch.Generate(tpch.Config{
		Customers: scaled(20), OrdersPerCustomer: 6, LinesPerOrder: 4,
		Parts: scaled(50), Seed: 1,
	})
	const level = 1
	cfg := runner.DefaultConfig()
	cat := trance.NewCatalog()
	nenv := tpch.Env(tpch.NestedToNested, level, false)
	if err := cat.Register("NDB", nenv["NDB"], tpch.BuildNested(tables, level, true)); err != nil {
		b.Fatal(err)
	}
	if err := cat.Register("Part", nenv["Part"], tables.Part); err != nil {
		b.Fatal(err)
	}
	sess := cat.NewSession(trance.SessionOptions{Config: &cfg})
	text := trance.Print(tpch.Query(tpch.NestedToNested, level, false))

	for _, strat := range []runner.Strategy{runner.Standard, runner.Shred} {
		b.Run("text/"+strat.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sq, err := sess.PrepareText("bench/text", text)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sq.Run(context.Background(), strat); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("builder/"+strat.String(), func(b *testing.B) {
			sq, err := sess.PrepareNamed("bench/builder", tpch.Query(tpch.NestedToNested, level, false))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sq.Run(context.Background(), strat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPreparedPipelineVsUnprepared measures what a reused SessionQuery
// amortizes over the five-step biomedical pipeline: the unprepared path
// empties the plan cache, then prepares the steps afresh in a new session —
// typechecking and compiling every step — on every evaluation, the prepared
// path compiles each step once into the plan cache (with env-aware
// fingerprints covering prior steps' output types) and only executes. Compare
// the sub-benchmarks with benchstat.
func BenchmarkPreparedPipelineVsUnprepared(b *testing.B) {
	cfg := biomed.SmallConfig()
	cfg.Samples = scaled(10)
	cfg.Genes = scaled(30)
	cat := benchCatalog(b, biomed.Env(), biomed.Generate(cfg))
	rcfg := runner.DefaultConfig()

	for _, strat := range []runner.Strategy{runner.Standard, runner.Shred} {
		b.Run("unprepared/"+strat.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// An empty plan cache makes the fresh session compile every
				// step (fresh step ASTs).
				trance.ResetPlanCache()
				sp, err := cat.NewSession(trance.SessionOptions{Config: &rcfg}).PreparePipeline(biomed.Steps())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sp.Run(context.Background(), strat); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("prepared/"+strat.String(), func(b *testing.B) {
			sp, err := cat.NewSession(trance.SessionOptions{Config: &rcfg}).PreparePipeline(biomed.Steps())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sp.Run(context.Background(), strat); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sp.Run(context.Background(), strat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJSONIngest measures NDJSON ingestion with nested schema inference
// (catalog RegisterJSON): decode, infer the unified type across all rows,
// convert to engine values. Reported as bytes/s over a two-level nested
// dataset.
func BenchmarkJSONIngest(b *testing.B) {
	var sb strings.Builder
	for i := 0; i < scaled(2000); i++ {
		fmt.Fprintf(&sb, `{"cust": "c%04d", "region": %d, "orders": [`, i, i%7)
		for o := 0; o < 3; o++ {
			if o > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, `{"odate": "2020-%02d-%02d", "items": [{"pid": %d, "qty": %d.5}, {"pid": %d, "qty": %d}]}`,
				o+1, i%27+1, i%100, o+1, (i+13)%100, o+2)
		}
		sb.WriteString("]}\n")
	}
	data := sb.String()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cat := trance.NewCatalog()
		info, err := cat.RegisterJSON("R", strings.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if info.Rows != scaled(2000) {
			b.Fatalf("rows: %d", info.Rows)
		}
	}
}

// BenchmarkIndexScanAblation measures what the secondary-index subsystem
// buys on selective predicates: the same compiled query runs with the
// relevant column indexes flagged in the statistics (the planner converts
// the pushed-down σ into an IndexScan and the executor resolves it against
// the built indexes) and with the same statistics flagging no index, which
// ablates the conversion (the σ stays a full partition sweep). Stats
// collection, index builds, compilation and row conversion all happen outside
// the timer, so the two arms are benchstat-comparable pure-execution numbers. The point-lookup
// case is the acceptance gate: an equality predicate keeping ≤1% of the
// relation must run ≥3× faster with the index.
func BenchmarkIndexScanAblation(b *testing.B) {
	gen := tpchConfig(0)
	gen.Customers = scaled(2000)
	// Enough parts that p_retailprice spans past the 19.0 guard: at the
	// default 100 parts the generated prices top out below it, the estimated
	// selectivity collapses to ~0, and the "~9% range" case silently becomes
	// an empty-span point case.
	gen.Parts = scaled(2000)
	tables := tpch.Generate(gen)

	cases := []struct {
		name    string
		mk      func() trance.Expr
		env     nrc.Env
		inputs  map[string]value.Bag
		indexed map[string][]string // dataset -> columns carrying indexes
		// expectPlanned: whether the idx=on arm should actually convert.
		// Range predicates above the measured crossover gate (see
		// indexScanMaxRangeSelectivity) deliberately stay full sweeps.
		expectPlanned bool
	}{
		{
			// ~0.008% selectivity: one orderkey out of Customers×6 orders.
			name:          "point-lookup",
			mk:            func() trance.Expr { return tpch.PointLookup(777) },
			env:           tpch.FlatEnv(),
			inputs:        map[string]value.Bag{"Lineitem": tables.Lineitem},
			indexed:       map[string][]string{"Lineitem": {"l_orderkey"}},
			expectPlanned: true,
		},
		{
			// ~10% × ~9% range guards over the flat leaf join: past the
			// crossover where position-list gathers beat the fused sweep —
			// this pair of arms measured idx=on LOSING (3.8ms vs 2.1ms,
			// against the since-removed kernel sweep; docs/INDEXES.md), which
			// is what pinned the range gate at the crossover.
			// The planner now refuses the conversion here, so both arms run
			// the fused sweep and stay benchstat-identical by construction.
			name: "selective-n2f-l0",
			mk:   func() trance.Expr { return tpch.NestedToFlatSelective(0) },
			env:  tpch.Env(tpch.NestedToFlat, 0, false),
			inputs: map[string]value.Bag{
				"NDB":  tpch.BuildNested(tables, 0, true),
				"Part": tables.Part,
			},
			indexed: map[string][]string{
				"NDB":  {"l_quantity"},
				"Part": {"p_retailprice"},
			},
		},
	}
	for _, c := range cases {
		plain, flagged := map[string]plan.TableEstimate{}, map[string]plan.TableEstimate{}
		for name, bag := range c.inputs {
			plain[name] = stats.Collect(bag, c.env[name].(nrc.BagType), stats.Options{Parallelism: 4}).Estimate()
			te := plain[name]
			te.Cols = maps.Clone(te.Cols)
			for _, col := range c.indexed[name] {
				ce := te.Cols[col]
				ce.Indexed = true
				te.Cols[col] = ce
			}
			flagged[name] = te
		}
		for _, on := range []bool{true, false} {
			mode := "on"
			if !on {
				mode = "off"
			}
			b.Run(fmt.Sprintf("%s/idx=%s", c.name, mode), func(b *testing.B) {
				cfg := benchConfig(inputBytes(c.inputs))
				cfg.MaxPartitionBytes = 0
				ests := plain
				if on {
					ests = flagged
				}
				cq, err := runner.CompileStep(c.mk(), c.env, runner.Standard, cfg, ests, "Q")
				if err != nil {
					b.Fatal(err)
				}
				if on && c.expectPlanned && cq.Idx.Planned == 0 {
					b.Fatal("indexed arm planned no index scans")
				}
				if on && !c.expectPlanned && cq.Idx.Planned != 0 {
					b.Fatal("range predicate above the crossover gate still converted to an IndexScan")
				}
				if !on && cq.Idx.Planned != 0 {
					b.Fatal("ablated arm still planned index scans")
				}
				// The indexed arm binds the index set its statistics flag.
				ins := runner.Inputs{}
				for name, bag := range c.inputs {
					chunks := []*runner.Chunk{runner.NewChunk(bag, c.env[name], 0)}
					var set *index.Set
					if on {
						set = index.NewSet()
						for _, col := range c.indexed[name] {
							ci, err := runner.IndexChunks(chunks, col)
							if err != nil {
								b.Fatal(err)
							}
							set.Put(ci)
						}
					}
					ins[name] = runner.NewInput(name, c.env[name], chunks, set)
				}
				rows, idxs, err := ins.Bind([]*runner.Compiled{cq}, runner.NewRunContext(cfg).Parallelism)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res := runner.Execute(context.Background(), []*runner.Compiled{cq}, rows, idxs, runner.NewRunContext(cfg), runner.ExecOptions{}).Materialized()
					if res.Failed() {
						b.Fatal(res.Err)
					}
				}
			})
		}
	}
}

// BenchmarkAnalyzeOverhead is the observability cost guard: the "off" arm is
// the default serving path with no Analysis attached — its only cost over the
// pre-analyze baseline is one nil check per operator, and it must stay within
// 2% of that baseline (compare against the previous release with benchstat).
// The "on" arm attaches a fresh per-run Analysis, paying the atomic counters
// and closure timers; compare off vs on to price EXPLAIN ANALYZE itself.
func BenchmarkAnalyzeOverhead(b *testing.B) {
	tables := tpch.Generate(tpch.Config{
		Customers: scaled(100), OrdersPerCustomer: 6, LinesPerOrder: 4,
		Parts: scaled(100), Seed: 1,
	})
	const level = 2
	inputs := map[string]value.Bag{
		"NDB":  tpch.BuildNested(tables, level, true),
		"Part": tables.Part,
	}
	cfg := runner.DefaultConfig()
	for _, strat := range []runner.Strategy{runner.Standard, runner.Shred} {
		cq, err := runner.CompileStep(tpch.Query(tpch.NestedToNested, level, false),
			tpch.Env(tpch.NestedToNested, level, false), strat, cfg, nil, "Q")
		if err != nil {
			b.Fatal(err)
		}
		rows, idxs, err := runner.NewInputs(inputs, cq.Env).Bind([]*runner.Compiled{cq}, runner.NewRunContext(cfg).Parallelism)
		if err != nil {
			b.Fatal(err)
		}
		run := func(b *testing.B, analysis func() *plan.Analysis) {
			for i := 0; i < b.N; i++ {
				res := runner.Execute(context.Background(), []*runner.Compiled{cq}, rows, idxs,
					runner.NewRunContext(cfg), runner.ExecOptions{Analysis: analysis()}).Materialized()
				if res.Failed() {
					b.Fatal(res.Err)
				}
			}
		}
		b.Run("off/"+strat.String(), func(b *testing.B) {
			run(b, func() *plan.Analysis { return nil })
		})
		b.Run("on/"+strat.String(), func(b *testing.B) {
			run(b, plan.NewAnalysis)
		})
	}
}
