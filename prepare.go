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

// Pool is a bounded worker pool shareable across sessions, so a
// process serving many concurrent requests draws all partition tasks from
// one goroutine budget. Each in-flight request's own goroutine counts as a
// worker and runs overflow tasks inline; a pool of size w adds at most w-1
// helper goroutines across everything sharing it.
type Pool = dataflow.Pool

// NewPool creates a shared worker pool (0 = NumCPU).
func NewPool(workers int) *Pool { return dataflow.NewPool(workers) }

// PreparedQuery is a program — one or more named steps, a query being the
// one-step case — prepared against one resolution of a session query: the
// compiled artifact of the catalog generations it resolved to
// (SessionQuery.Prepared). Every step's compilation goes through the
// process-wide plan cache, keyed by an env-aware fingerprint: a step's key
// digests the step query, the base environment plus the resolved output types
// of every prior step, the statistics it is costed against, and its effective
// strategy. Two programs sharing a prefix therefore share the prefix's
// compiled plans, and re-preparing the same program compiles nothing.
//
// All methods are safe for concurrent use.
type PreparedQuery struct {
	name  string
	steps []PipelineStep
	envs  []Env    // per-step compile environment (base + prior outputs)
	fps   []string // per-step fingerprint of (query, env, compile-relevant config, stats)
	cfg   Config
	stats map[string]plan.TableEstimate // per-input statistics the steps are costed against
	pool  *Pool

	// compileMu serializes typechecking and strategy compilations of the
	// steps, which annotate the shared step ASTs in place. Cache hits do not
	// take the lock. It belongs to the session query, so every generation's
	// preparation of the same ASTs shares it.
	compileMu *sync.Mutex
}

// prepare typechecks a program — every step against the base environment env
// extended with the outputs of prior steps (runner.ResolveSteps) — and
// fingerprints each step under cfg and stats, the one way anything is
// prepared: each (step, strategy) then compiles exactly once process-wide on
// first use. Shredded strategies keep intermediate results shredded between
// steps (paper Section 4); only the final output is read nested. The caller
// holds compileMu.
func prepare(name string, steps []PipelineStep, env Env, cfg Config, stats map[string]plan.TableEstimate, pool *Pool, compileMu *sync.Mutex) (*PreparedQuery, error) {
	envs, _, err := runner.ResolveSteps(steps, env)
	if err != nil {
		// A query's errors name no step, as its compile errors do not.
		var se *runner.StepError
		if len(steps) == 1 && errors.As(err, &se) {
			err = se.Err
		}
		if name != "" {
			return nil, fmt.Errorf("prepare %s: %w", name, err)
		}
		return nil, err
	}
	pq := &PreparedQuery{name: name, steps: steps, envs: envs, cfg: cfg, stats: stats, pool: pool, compileMu: compileMu}
	for i, st := range steps {
		pq.fps = append(pq.fps, fingerprint(st, envs[i], cfg, stats))
	}
	return pq, nil
}

// queryStep names a query's one step: "Q", extended by "_" until no name
// bound has it.
func queryStep[V any](bound map[string]V) string {
	name := "Q"
	for _, ok := bound[name]; ok; _, ok = bound[name] {
		name += "_"
	}
	return name
}

func (pq *PreparedQuery) label() string {
	if pq.name != "" {
		return pq.name
	}
	return "query " + pq.fps[0][:12]
}

// Fingerprint returns what identifies (program, environment, compile-relevant
// config) in the compilation cache: the ";"-joined hex digests of the steps,
// one for a query. Strategy keys are derived from it.
func (pq *PreparedQuery) Fingerprint() string { return strings.Join(pq.fps, ";") }

// OutputColumn describes one column of a strategy's output dataset.
type OutputColumn = runner.OutputColumn

// OutputSchema reports the flat schema of the rows Run returns under the
// strategy, compiling it if needed: the query's own field names and types,
// the nested answer's on every route. A Result carries the same schema as
// Result.Columns (Result.Top's are the shredded top bag's).
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

// run evaluates the program under the strategy over inputs. The compiled
// plans are looked up in the compilation cache (and compiled on first use);
// the inputs convert their rows and build the planned indexes once per route;
// execution runs on a fresh dataflow context drawing workers from the shared
// pool (see SessionQuery.Run).
func (pq *PreparedQuery) run(ctx context.Context, inputs runner.Inputs, strat Strategy, opts ...RunOption) (*Result, error) {
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
	dctx := runner.NewRunContext(pq.cfg)
	dctx.Pool = pq.pool
	bsp := tr.Span().Child("bind")
	rows, idxs, err := inputs.Bind(prog, dctx.Parallelism)
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

// compiled assembles the program for the strategy from the plan cache,
// compiling each missing (step, strategy) slot exactly once process-wide;
// compiledNow reports whether this call performed a compilation (false =
// served from the cache — the trace layer's cache-hit attribution). Every
// step compiles under the strategy asked for, Auto resolved at the first
// (runner.StepStrategy).
func (pq *PreparedQuery) compiled(strat Strategy) (prog []*runner.Compiled, compiledNow bool, err error) {
	prog = make([]*runner.Compiled, len(pq.steps))
	for i, st := range pq.steps {
		eff := runner.StepStrategy(strat, prog[0])
		entry := planCache.entry(pq.fps[i] + "|" + eff.String())
		entry.once.Do(func() {
			pq.compileMu.Lock()
			defer pq.compileMu.Unlock()
			cacheCompiles.Add(1)
			compiledNow = true
			entry.cq, entry.err = runner.CompileStep(st.Expr, pq.envs[i], eff, pq.cfg, pq.stats, st.Name)
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

// fingerprint digests everything that affects a step's compilation: its
// name and query (in canonical surface syntax), the sorted environment, the
// compile-relevant config knobs and the statistics. Execution-only knobs (parallelism, worker
// and memory bounds) are deliberately excluded so configs differing only in
// cluster sizing share compiled plans.
func fingerprint(st PipelineStep, env Env, cfg Config, stats map[string]plan.TableEstimate) string {
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
	statNames := make([]string, 0, len(stats))
	for n := range stats {
		statNames = append(statNames, n)
	}
	sort.Strings(statNames)
	for _, n := range statNames {
		te := stats[n]
		fmt.Fprintf(h, "stats %s: gen=%d rows=%d bytes=%d\n", n, te.Generation, te.Rows, te.Bytes)
		colNames := make([]string, 0, len(te.Cols))
		for cn := range te.Cols {
			colNames = append(colNames, cn)
		}
		sort.Strings(colNames)
		for _, cn := range colNames {
			ce := te.Cols[cn]
			fmt.Fprintf(h, "  col %s: ndv=%d heavy=%g min=%s max=%s idx=%t\n",
				cn, ce.NDV, ce.HeavyFraction, value.Format(ce.Min), value.Format(ce.Max), ce.Indexed)
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

// compilationCache is the process-wide compilation cache behind every
// PreparedQuery.
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
