package trance

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/trance-go/trance/internal/dataflow"
	"github.com/trance-go/trance/internal/metrics"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/plan"
	"github.com/trance-go/trance/internal/runner"
	"github.com/trance-go/trance/internal/trace"
	"github.com/trance-go/trance/internal/value"
)

// Pool is a bounded worker pool shareable across prepared queries, so a
// process serving many concurrent requests draws all partition tasks from
// one goroutine budget. Each in-flight request's own goroutine counts as a
// worker and runs overflow tasks inline; a pool of size w adds at most w-1
// helper goroutines across everything sharing it.
type Pool = dataflow.Pool

// NewPool creates a shared worker pool (0 = NumCPU).
func NewPool(workers int) *Pool { return dataflow.NewPool(workers) }

// poolFor resolves the worker pool for a prepared query or session: the
// explicit override, else a private pool sized by Config.Workers when set,
// else nil — the process-wide default pool, so all prepared queries of a
// process share the machine by default.
func poolFor(cfg Config, override *Pool) *Pool {
	if override != nil {
		return override
	}
	if cfg.Workers > 0 {
		return NewPool(cfg.Workers)
	}
	return nil
}

// PrepareOptions configures Prepare.
type PrepareOptions struct {
	// Name labels the prepared query in errors and service metrics.
	Name string
	// Env is the input environment the query is checked against (required).
	Env Env
	// Config sizes the simulated cluster; nil means DefaultConfig().
	Config *Config
	// Strategies to compile eagerly during Prepare. Strategies not listed
	// compile on first Run (still exactly once, through the same cache). Nil
	// compiles nothing eagerly.
	Strategies []Strategy
	// Pool overrides the worker pool the prepared query's runs draw from.
	// Nil uses a pool sized by Config.Workers when that is set, and the
	// process-wide default pool otherwise.
	Pool *Pool
}

// PreparedQuery is a program — one or more named steps, a query being the
// one-step case — compiled once and evaluated many times. Every step's
// compilation goes through the process-wide plan cache, keyed by an env-aware
// fingerprint: a step's key digests the step query, the base environment plus
// the resolved output types of every prior step, and its effective strategy.
// Two programs sharing a prefix therefore share the prefix's compiled plans,
// and re-preparing the same program compiles nothing.
//
// All methods are safe for concurrent use: any number of goroutines may Run
// the same PreparedQuery over different datasets at once; they share the
// per-strategy compiled plans and one bounded worker pool, while every run
// gets its own dataflow context and metrics.
type PreparedQuery struct {
	name  string
	steps []PipelineStep
	envs  []Env    // per-step compile environment (base + prior outputs)
	outs  []Type   // per-step checked output type
	fps   []string // per-step fingerprint of (query, env, compile-relevant config)
	cfg   Config
	pool  *Pool

	// compileMu serializes strategy compilations of this program: compilation
	// type-annotates the shared step ASTs in place, so concurrent first-Runs
	// under different strategies must not compile simultaneously. Cache hits do
	// not take the lock. It is a pointer so a session's generation refresh can
	// share one mutex across re-preparations of the same ASTs.
	compileMu *sync.Mutex
}

// Prepare typechecks the query and sets up compile-once evaluation: it is
// PreparePipeline over the query's one step, named "Q" (or, when an input
// already has that name, the first of "Q_", "Q__", … that none has). Each
// (query, strategy) pair is compiled — NRC typecheck, standard or shredded
// compilation, plan pruning — exactly once and cached in a process-wide,
// thread-safe, fingerprint-keyed compilation cache, no matter how many
// goroutines Run concurrently. Compile- and run-time panics surface as
// errors, so a malformed query cannot crash a serving process.
//
// Prepare takes ownership of the query's AST (compilation annotates it in
// place); do not share one expression tree between concurrent Prepare calls.
func Prepare(query Expr, opts PrepareOptions) (*PreparedQuery, error) {
	return PreparePipeline([]PipelineStep{{Name: queryStep(opts.Env), Expr: query}}, opts)
}

// queryStep names a query's one step: "Q", extended by "_" until no input of
// env has the name.
func queryStep(env Env) string {
	name := "Q"
	for _, bound := env[name]; bound; _, bound = env[name] {
		name += "_"
	}
	return name
}

// PreparePipeline prepares a program — the one way anything is compiled:
// every step typechecks against the base environment extended with the
// outputs of prior steps (runner.ResolveSteps), and each (step, strategy)
// compiles exactly once process-wide, under a fingerprint of the step. A
// query is the one-step program (Prepare). Shredded strategies keep
// intermediate results shredded between steps and unshred only the final
// output (paper Section 4).
//
// PreparePipeline takes ownership of the step ASTs; do not share them
// between concurrent Prepare calls.
func PreparePipeline(steps []PipelineStep, opts PrepareOptions) (*PreparedQuery, error) {
	if opts.Env == nil {
		return nil, fmt.Errorf("trance: prepare requires PrepareOptions.Env")
	}
	envs, outs, err := runner.ResolveSteps(steps, opts.Env)
	if err != nil {
		// A query's errors name no step, as its compile errors do not.
		var se *runner.StepError
		if len(steps) == 1 && errors.As(err, &se) {
			err = se.Err
		}
		if opts.Name != "" {
			return nil, fmt.Errorf("prepare %s: %w", opts.Name, err)
		}
		return nil, err
	}
	pq := newPrepared(opts, append([]PipelineStep(nil), steps...), envs, outs)
	for i, st := range steps {
		pq.fps = append(pq.fps, fingerprint(st, envs[i], pq.cfg))
	}
	return pq, pq.compileEager(opts.Strategies)
}

func newPrepared(opts PrepareOptions, steps []PipelineStep, envs []Env, outs []Type) *PreparedQuery {
	cfg := DefaultConfig()
	if opts.Config != nil {
		cfg = *opts.Config
	}
	return &PreparedQuery{
		name: opts.Name, steps: steps, envs: envs, outs: outs,
		cfg: cfg, pool: poolFor(cfg, opts.Pool), compileMu: &sync.Mutex{},
	}
}

func (pq *PreparedQuery) compileEager(strats []Strategy) error {
	for _, s := range strats {
		if _, _, err := pq.compiled(s); err != nil {
			return fmt.Errorf("prepare %s (%s): %w", pq.label(), s, err)
		}
	}
	return nil
}

func (pq *PreparedQuery) label() string {
	if pq.name != "" {
		return pq.name
	}
	return "query " + pq.fps[0][:12]
}

// Name returns the label given at Prepare time.
func (pq *PreparedQuery) Name() string { return pq.name }

// Fingerprint returns what identifies (program, environment, compile-relevant
// config) in the compilation cache: the ";"-joined hex digests of the steps,
// one for a query. Strategy keys are derived from it.
func (pq *PreparedQuery) Fingerprint() string { return strings.Join(pq.fps, ";") }

// OutType returns the checked output type (of the final step).
func (pq *PreparedQuery) OutType() Type { return pq.outs[len(pq.outs)-1] }

// OutputColumn describes one column of a strategy's output dataset.
type OutputColumn = runner.OutputColumn

// OutputSchema reports the flat schema of the dataset Run returns under the
// strategy, compiling it if needed: the query's own field names and types
// when the output is the nested value (standard and unshredding routes), the
// materialized top-bag columns (labels in place of inner bags) for Shred. A
// Result carries the same schema as Result.Columns.
func (pq *PreparedQuery) OutputSchema(strat Strategy) ([]OutputColumn, error) {
	prog, _, err := pq.compiled(strat)
	if err != nil {
		return nil, err
	}
	return prog[len(prog)-1].Columns, nil
}

// Explain compiles the strategy if needed and renders every plan of every
// step before and after the rule-based optimizer pass (predicate pushdown,
// select fusion, constant folding), plus the optimizer's rule-hit counters —
// the text behind `trance query -explain` and the tranced /explain routes.
// For the plans annotated with what a run observed, Run with Analyze() and
// render Result.ExplainAnalyze.
func (pq *PreparedQuery) Explain(strat Strategy) (string, error) {
	prog, _, err := pq.compiled(strat)
	if err != nil {
		return "", fmt.Errorf("%s (%s): %w", pq.label(), strat, err)
	}
	return runner.Explain(prog), nil
}

// RunOption adjusts one Run.
type RunOption func(*runOptions)

type runOptions struct{ analyze bool }

// Analyze instruments the run (EXPLAIN ANALYZE): the execution collects
// per-operator runtime statistics — actual rows in/out, wall time, index probe
// outcomes — into Result.Analyze, and Result.ExplainAnalyze renders the plans
// with them beside the static cost annotations, followed by a q-error summary.
// The instrumented run is slightly slower; leave it off on hot paths.
func Analyze() RunOption { return func(o *runOptions) { o.analyze = true } }

// Run evaluates the prepared program under the strategy over data bound with
// BindData (pq.Run(ctx, pq.BindData(inputs), strat) for a one-off). The
// compiled plans are looked up in the compilation cache (and compiled on first
// use); input conversion and the planned indexes are cached on the data;
// execution runs on a fresh dataflow context drawing workers from the shared
// pool. A nil Result means the program did not compile (or ctx was already
// done); failures from there on (including recovered panics) return the
// Result — its Metrics, StepElapsed and FailedStep are valid — beside the
// error. Cancellation of ctx is honored between plan statements. When ctx
// carries a trace the run records compile, bind and execute spans and stamps
// Result.TraceID.
func (pq *PreparedQuery) Run(ctx context.Context, data *PreparedData, strat Strategy, opts ...RunOption) (*Result, error) {
	var o runOptions
	for _, fn := range opts {
		fn(&o)
	}
	tr := trace.From(ctx)
	csp := tr.Span().Child("compile")
	prog, compiledNow, err := pq.compiled(strat)
	if compiledNow {
		csp.Set("cache", "miss")
	} else {
		csp.Set("cache", "hit")
	}
	if err == nil {
		csp.Set("strategy", prog[len(prog)-1].Strategy.String())
	}
	csp.End()
	if err != nil {
		return nil, fmt.Errorf("%s (%s): %w", pq.label(), strat, err)
	}
	bsp := tr.Span().Child("bind")
	rows, idxs, err := data.inputs.Bind(prog)
	bsp.End()
	if err != nil {
		err = fmt.Errorf("%s (%s): prepare inputs: %w", pq.label(), strat, err)
		return runner.Failure(strat, err), err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var eopts runner.ExecOptions
	if o.analyze {
		eopts.Analysis = plan.NewAnalysis()
	}
	eopts.Span = tr.Span().Child("execute")
	dctx := runner.NewRunContext(pq.cfg)
	dctx.Pool = pq.pool
	res := runner.Execute(ctx, prog, rows, idxs, dctx, eopts)
	eopts.Span.End()
	if tr != nil {
		res.TraceID = tr.ID
	}
	if res.Err != nil {
		return res, fmt.Errorf("%s (%s): %w", pq.label(), strat, res.Err)
	}
	return res, nil
}

// PreparedData is a dataset bound to a prepared query: each input's
// conversion into engine rows — top-level rows for standard routes,
// value-shredded dictionary components for shredded routes — and the
// secondary indexes the plans planned are computed once per route on first
// use and shared by every Run and any number of goroutines (runner.Input).
// Bind the data once at load time and serve requests from it. A session binds
// the inputs its catalog generations own, which every query over them shares.
type PreparedData struct {
	inputs runner.Inputs
}

// BindData associates a dataset with the prepared query for evaluation. The
// input bags are captured by reference and must not be mutated afterwards;
// the data must be run by a query with the same input environment.
func (pq *PreparedQuery) BindData(inputs map[string]Bag) *PreparedData {
	return &PreparedData{inputs: runner.NewInputs(inputs, pq.envs[0])}
}

// compiled assembles the program for the strategy from the plan cache,
// compiling each missing (step, strategy) slot exactly once process-wide;
// compiledNow reports whether this call performed a compilation (false =
// served from the cache — the trace layer's cache-hit attribution).
// Intermediate steps of unshredding strategies compile as their shredded-only
// variant (see runner.StepStrategy), sharing cache slots with plain Shred
// programs.
func (pq *PreparedQuery) compiled(strat Strategy) (prog []*runner.Compiled, compiledNow bool, err error) {
	prog = make([]*runner.Compiled, len(pq.steps))
	for i, st := range pq.steps {
		eff := runner.StepStrategy(strat, prog[0], i == len(pq.steps)-1)
		entry := planCache.entry(pq.fps[i] + "|" + eff.String())
		entry.once.Do(func() {
			pq.compileMu.Lock()
			defer pq.compileMu.Unlock()
			cacheCompiles.Add(1)
			compiledNow = true
			entry.cq, entry.err = runner.CompileStep(st.Expr, pq.envs[i], eff, pq.cfg, st.Name)
		})
		if entry.err != nil {
			if len(pq.steps) > 1 {
				return nil, compiledNow, &runner.StepError{Step: i, Name: st.Name, Err: entry.err}
			}
			return nil, compiledNow, entry.err
		}
		prog[i] = entry.cq
	}
	return prog, compiledNow, nil
}

// RunPipeline executes a program under one strategy over explicit inputs,
// binding each step's output as an input of later steps: PreparePipeline, then
// one Run. Compilation goes through the process-wide plan cache, so a repeated
// program compiles each step exactly once; the inputs are converted on every
// call.
func RunPipeline(steps []PipelineStep, env Env, inputs map[string]Bag, strat Strategy, cfg Config) *Result {
	pq, err := PreparePipeline(steps, PrepareOptions{Env: env, Config: &cfg})
	var res *Result
	if err == nil {
		res, err = pq.Run(context.Background(), pq.BindData(inputs), strat)
	}
	if res == nil {
		res = runner.Failure(strat, err)
	}
	return res
}

// fingerprint digests everything that affects a step's compilation: its
// name and query (in canonical surface syntax), the sorted environment, and
// the compile-relevant config knobs. Execution-only knobs (parallelism, worker
// and memory bounds) are deliberately excluded so configs differing only in
// cluster sizing share compiled plans.
func fingerprint(st PipelineStep, env Env, cfg Config) string {
	h := sha256.New()
	fmt.Fprintf(h, "step %s\n%s\n", st.Name, nrc.Print(st.Expr))
	names := make([]string, 0, len(env))
	for n := range env {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(h, "%s:%s\n", n, env[n])
	}
	fmt.Fprintf(h, "de=%t prune=%t pushdown=%t\n",
		cfg.DomainElimination, !cfg.NoColumnPruning, !cfg.NoPredicatePushdown)
	// Cost-model inputs: the broadcast limit changes what Annotate compiles,
	// and the statistics digest ties cached plans to the dataset generation
	// they were costed against (and Auto chose by) — a Drop + re-register
	// under the same name yields new statistics (new generation) and
	// therefore a new fingerprint, never a stale cached route. The index flags
	// decide which selections plan as index scans.
	fmt.Fprintf(h, "bcast=%d\n", cfg.BroadcastLimit)
	statNames := make([]string, 0, len(cfg.Stats))
	for n := range cfg.Stats {
		statNames = append(statNames, n)
	}
	sort.Strings(statNames)
	for _, n := range statNames {
		te := cfg.Stats[n]
		fmt.Fprintf(h, "stats %s: gen=%d rows=%d bytes=%d\n", n, te.Generation, te.Rows, te.Bytes)
		colNames := make([]string, 0, len(te.Cols))
		for cn := range te.Cols {
			colNames = append(colNames, cn)
		}
		sort.Strings(colNames)
		for _, cn := range colNames {
			ce := te.Cols[cn]
			fmt.Fprintf(h, "  col %s: ndv=%d heavy=%g min=%s max=%s idxh=%t idxo=%t\n",
				cn, ce.NDV, ce.HeavyFraction, value.Format(ce.Min), value.Format(ce.Max),
				ce.IndexHash, ce.IndexOrdered)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cacheEntry is one (fingerprint, strategy) slot; once guarantees a single
// compilation even when many goroutines race on first use.
type cacheEntry struct {
	once sync.Once
	cq   *runner.Compiled
	err  error
}

// maxPlanCacheEntries bounds the compilation cache so a service preparing
// dynamically built queries (each a fresh fingerprint) cannot grow memory
// without limit; the oldest entry is evicted first and recompiles on next
// use. Long-lived PreparedQuery values are unaffected by eviction of their
// slots — they re-enter the cache on the next Run.
var maxPlanCacheEntries = 512

// compilationCache is the process-wide compilation cache behind Prepare.
type compilationCache struct {
	mu    sync.Mutex
	m     map[string]*cacheEntry
	order []string // insertion order, for bounded eviction
}

var planCache = &compilationCache{m: map[string]*cacheEntry{}}

// The plan cache's process-wide metrics; ResetPlanCache zeroes the counters.
var (
	cacheCompiles = metrics.NewCounter("plan_cache.compiles", "trance_plan_cache_compiles_total", "Compilations performed.")
	cacheHits     = metrics.NewCounter("plan_cache.hits", "trance_plan_cache_hits_total", "Plan cache lookups served without compiling.")
	cacheEvicts   = metrics.NewCounter("plan_cache.evictions", "trance_plan_cache_evictions_total", "Plan cache entries evicted by the size bound.")
)

func init() {
	metrics.NewGauge("plan_cache.entries", "trance_plan_cache_entries", "Compiled (query, strategy) plans cached.", func() int64 {
		planCache.mu.Lock()
		defer planCache.mu.Unlock()
		return int64(len(planCache.m))
	})
}

func (c *compilationCache) entry(key string) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok {
		cacheHits.Add(1)
		return e
	}
	for len(c.m) >= maxPlanCacheEntries && len(c.order) > 0 {
		delete(c.m, c.order[0])
		c.order = c.order[1:]
		cacheEvicts.Add(1)
	}
	e := &cacheEntry{}
	c.m[key] = e
	c.order = append(c.order, key)
	return e
}

// ResetPlanCache empties the compilation cache (counters included).
// In-flight runs keep their entries; subsequent first uses recompile.
func ResetPlanCache() {
	planCache.mu.Lock()
	planCache.m = map[string]*cacheEntry{}
	planCache.order = nil
	planCache.mu.Unlock()
	cacheCompiles.Reset()
	cacheHits.Reset()
	cacheEvicts.Reset()
}
