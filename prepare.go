package trance

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/trance-go/trance/internal/dataflow"
	"github.com/trance-go/trance/internal/index"
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

// defaultPool serves every PreparedQuery that was not given an explicit pool
// or a Config.Workers bound: all prepared queries of a process share the
// machine by default.
var defaultPool = dataflow.NewPool(0)

// poolFor resolves the worker pool for a prepared query, pipeline or
// session: the explicit override, else a private pool sized by
// Config.Workers when set, else the process-wide default.
func poolFor(cfg Config, override *Pool) *Pool {
	if override != nil {
		return override
	}
	if cfg.Workers > 0 {
		return NewPool(cfg.Workers)
	}
	return defaultPool
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

// PreparedQuery is a query compiled once and evaluated many times. All
// methods are safe for concurrent use: any number of goroutines may Run the
// same PreparedQuery over different datasets at once; they share the
// per-strategy compiled plans and one bounded worker pool, while every run
// gets its own dataflow context and metrics.
type PreparedQuery struct {
	name    string
	query   Expr
	env     Env
	cfg     Config
	outType Type
	pool    *Pool
	fp      string // fingerprint of (query, env, compile-relevant config)

	// compileMu serializes strategy compilations of this query: compilation
	// type-annotates the shared AST in place, so concurrent first-Runs under
	// different strategies must not compile simultaneously. Cache hits do not
	// take the lock. It is a pointer so a session's generation refresh can
	// share one mutex across re-preparations of the same AST.
	compileMu *sync.Mutex
}

// Prepare typechecks the query and sets up compile-once evaluation: each
// (query, strategy) pair is compiled — NRC typecheck, standard or shredded
// compilation, plan pruning — exactly once and cached in a process-wide,
// thread-safe, fingerprint-keyed compilation cache, no matter how many
// goroutines Run concurrently. Compile- and run-time panics surface as
// errors, so a malformed query cannot crash a serving process.
//
// Prepare takes ownership of the query's AST (compilation annotates it in
// place); do not share one expression tree between concurrent Prepare calls.
func Prepare(query Expr, opts PrepareOptions) (*PreparedQuery, error) {
	if opts.Env == nil {
		return nil, fmt.Errorf("trance: Prepare requires PrepareOptions.Env")
	}
	cfg := DefaultConfig()
	if opts.Config != nil {
		cfg = *opts.Config
	}
	t, err := nrc.Check(query, opts.Env)
	if err != nil {
		if opts.Name != "" {
			return nil, fmt.Errorf("prepare %s: %w", opts.Name, err)
		}
		return nil, err
	}
	pq := &PreparedQuery{
		name:      opts.Name,
		query:     query,
		env:       opts.Env,
		cfg:       cfg,
		outType:   t,
		pool:      poolFor(cfg, opts.Pool),
		fp:        fingerprint(query, opts.Env, cfg),
		compileMu: &sync.Mutex{},
	}
	for _, s := range opts.Strategies {
		if _, err := pq.compiled(s); err != nil {
			return nil, fmt.Errorf("prepare %s (%s): %w", pq.label(), s, err)
		}
	}
	return pq, nil
}

func (pq *PreparedQuery) label() string {
	if pq.name != "" {
		return pq.name
	}
	return "query " + pq.fp[:12]
}

// Name returns the label given at Prepare time.
func (pq *PreparedQuery) Name() string { return pq.name }

// Fingerprint returns the hex digest identifying (query, environment,
// compile-relevant config) in the compilation cache. Strategy keys are
// derived from it.
func (pq *PreparedQuery) Fingerprint() string { return pq.fp }

// OutType returns the query's checked output type.
func (pq *PreparedQuery) OutType() Type { return pq.outType }

// Query returns the prepared NRC expression (shared AST — treat as
// read-only).
func (pq *PreparedQuery) Query() Expr { return pq.query }

// OutputColumn describes one column of a strategy's output dataset.
type OutputColumn struct {
	Name string
	Type Type
}

// OutputColumns reports the flat schema of the dataset Run returns under the
// strategy: the nested output schema for standard and unshredding routes,
// the materialized top-bag schema (labels in place of inner bags) for Shred.
// It compiles the strategy if needed.
func (pq *PreparedQuery) OutputColumns(strat Strategy) ([]OutputColumn, error) {
	cq, err := pq.compiled(strat)
	if err != nil {
		return nil, err
	}
	op := cq.OutputPlan()
	if op == nil {
		return nil, fmt.Errorf("%s (%s): no output plan", pq.label(), strat)
	}
	var cols []OutputColumn
	for _, c := range op.Columns() {
		cols = append(cols, OutputColumn{Name: c.Name, Type: c.Type})
	}
	return cols, nil
}

// OutputSchema is OutputColumns with the query's own field names: when the
// strategy's output is the nested value (standard routes and unshredding
// routes), the columns carry the checked output type's names and types
// instead of the plan's internal column labels (which prefix nested fields
// with compiler variables, e.g. "co.odate"). For Shred the materialized
// top-bag columns are returned unchanged. JSON encoders should prefer this.
func (pq *PreparedQuery) OutputSchema(strat Strategy) ([]OutputColumn, error) {
	cols, err := pq.OutputColumns(strat)
	if err != nil {
		return nil, err
	}
	return namedSchema(cols, pq.outType, strat), nil
}

// namedSchema maps a strategy's plan output columns to the query's own field
// names where the output is the nested value (see OutputSchema).
func namedSchema(cols []OutputColumn, outType Type, strat Strategy) []OutputColumn {
	if strat.IsShredded() && !(strat == ShredUnshred || strat == ShredUnshredSkew) {
		return cols
	}
	bt, ok := outType.(nrc.BagType)
	if !ok {
		return cols
	}
	if tt, ok := bt.Elem.(nrc.TupleType); ok && len(tt.Fields) == len(cols) {
		out := make([]OutputColumn, len(tt.Fields))
		for i, f := range tt.Fields {
			out[i] = OutputColumn{Name: f.Name, Type: f.Type}
		}
		return out
	}
	if len(cols) == 1 {
		return []OutputColumn{{Name: cols[0].Name, Type: bt.Elem}}
	}
	return cols
}

// ExplainOption configures PreparedQuery.Explain.
type ExplainOption func(*explainOptions)

type explainOptions struct {
	analyze bool
	inputs  map[string]Bag
	data    *PreparedData
}

// WithAnalyze makes Explain execute the query over the given inputs and
// annotate every plan operator with the observed runtime statistics — actual
// rows in/out, wall time, index probe outcomes — beside the
// static cost annotations, followed by a per-join/per-scan q-error summary
// (EXPLAIN ANALYZE).
func WithAnalyze(inputs map[string]Bag) ExplainOption {
	return func(o *explainOptions) { o.analyze, o.inputs = true, inputs }
}

// WithAnalyzeBound is WithAnalyze over data bound with BindData: the serving
// path, where input conversion is cached and catalog indexes are bound.
func WithAnalyzeBound(data *PreparedData) ExplainOption {
	return func(o *explainOptions) { o.analyze, o.data = true, data }
}

// Explain compiles the strategy if needed and renders every plan of the
// compiled artifact before and after the rule-based optimizer pass
// (predicate pushdown, select fusion, constant folding), plus the
// optimizer's rule-hit counters — the text behind `trance query -explain`
// and the tranced GET /explain route. With WithAnalyze/WithAnalyzeBound the
// query is additionally executed and the plans are rendered with per-operator
// runtime statistics and a q-error summary.
func (pq *PreparedQuery) Explain(strat Strategy, opts ...ExplainOption) (string, error) {
	var o explainOptions
	for _, fn := range opts {
		fn(&o)
	}
	cq, err := pq.compiled(strat)
	if err != nil {
		return "", fmt.Errorf("%s (%s): %w", pq.label(), strat, err)
	}
	if !o.analyze {
		return cq.Explain(), nil
	}
	var res *Result
	if o.data != nil {
		res, err = pq.runBound(context.Background(), o.data, strat, true)
	} else {
		res, err = pq.run(context.Background(), o.inputs, strat, true)
	}
	if err != nil {
		return "", err
	}
	return cq.ExplainAnalyze(res), nil
}

// ExplainAnalyzeResult renders the analyzed plans of a Result produced by
// RunAnalyzed/RunBoundAnalyzed under the same strategy, without re-running.
func (pq *PreparedQuery) ExplainAnalyzeResult(strat Strategy, res *Result) (string, error) {
	cq, err := pq.compiled(strat)
	if err != nil {
		return "", fmt.Errorf("%s (%s): %w", pq.label(), strat, err)
	}
	return cq.ExplainAnalyze(res), nil
}

// Run evaluates the prepared query under the strategy over one set of
// inputs. The compiled plans are looked up in the compilation cache (and
// compiled on first use); execution runs on a fresh dataflow context drawing
// workers from the prepared query's shared pool. Compile errors and
// exec-time failures (including recovered panics) are returned as errors —
// when the returned Result is non-nil its Metrics and Elapsed are valid even
// on failure. Cancellation of ctx is honored between plan statements.
//
// Run converts the nested inputs into engine rows on every call
// (value-shredding them on shredded routes); when the same dataset is
// evaluated repeatedly, BindData + RunBound amortize that conversion too.
func (pq *PreparedQuery) Run(ctx context.Context, inputs map[string]Bag, strat Strategy) (*Result, error) {
	return pq.run(ctx, inputs, strat, false)
}

// RunAnalyzed is Run with EXPLAIN ANALYZE instrumentation: the execution
// collects per-operator runtime statistics into Result.Analyze, renderable
// with ExplainAnalyzeResult. The instrumented run is slightly slower; leave
// it off on hot paths.
func (pq *PreparedQuery) RunAnalyzed(ctx context.Context, inputs map[string]Bag, strat Strategy) (*Result, error) {
	return pq.run(ctx, inputs, strat, true)
}

func (pq *PreparedQuery) run(ctx context.Context, inputs map[string]Bag, strat Strategy, analyze bool) (*Result, error) {
	cq, err := pq.tracedCompile(ctx, strat)
	if err != nil {
		return nil, fmt.Errorf("%s (%s): %w", pq.label(), strat, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opts, finish := execOptions(ctx, analyze)
	res := cq.ExecuteWithOpts(ctx, inputs, pq.runContext(strat), opts)
	finish(res)
	if res.Err != nil {
		return res, fmt.Errorf("%s (%s): %w", pq.label(), strat, res.Err)
	}
	return res, nil
}

// tracedCompile resolves the compiled artifact for the strategy, recording a
// compile span — with cache-hit/miss attribution and the resolved strategy —
// on the request trace when the context carries one.
func (pq *PreparedQuery) tracedCompile(ctx context.Context, strat Strategy) (*runner.Compiled, error) {
	sp := trace.From(ctx).Span().Child("compile")
	cq, compiled, err := pq.compiledTracked(strat)
	if compiled {
		sp.Set("cache", "miss")
	} else {
		sp.Set("cache", "hit")
	}
	if err == nil {
		sp.Set("strategy", cq.Strategy.String())
	}
	sp.End()
	return cq, err
}

// execOptions builds the runner ExecOptions for one evaluation: an Analysis
// collector when analyze is on, and an execute span when the context carries
// a trace. The returned finish ends the span and stamps the trace ID onto
// the result.
func execOptions(ctx context.Context, analyze bool) (runner.ExecOptions, func(*Result)) {
	var opts runner.ExecOptions
	if analyze {
		opts.Analysis = plan.NewAnalysis()
	}
	tr := trace.From(ctx)
	esp := tr.Span().Child("execute")
	opts.Span = esp
	return opts, func(res *Result) {
		esp.End()
		if res != nil && tr != nil {
			res.TraceID = tr.ID
		}
	}
}

func (pq *PreparedQuery) runContext(strat Strategy) *dataflow.Context {
	dctx := runner.NewRunContext(pq.cfg, strat)
	dctx.SharedPool = pq.pool
	return dctx
}

// PreparedData is a dataset bound to a prepared query: the conversion of
// nested values into engine rows — top-level rows for standard routes,
// value-shredded dictionary components for shredded routes — is computed
// once per route on first use and shared by every RunBound call and any
// number of goroutines. Bind the data once at load time and serve requests
// from it (what cmd/tranced does with its preloaded datasets).
type PreparedData struct {
	raw map[string]Bag

	// convert, when set, converts one named input (all its components);
	// sessions install a converter that shares converted rows per (variable,
	// dataset, route) across every query they prepare, so many ad-hoc
	// queries over one dataset hold one converted copy, not one each. Nil
	// falls back to the compiled query's own whole-map conversion.
	convert func(cq *runner.Compiled, name string, b Bag) (map[string][]dataflow.Row, error)

	// idxs are the secondary indexes of the bound datasets, keyed by variable
	// name (sessions fill them from the catalog). RunBound re-keys them for
	// the route and binds them so IndexScan plans resolve spans against them;
	// nil makes every IndexScan fall back to a full scan plus its predicate.
	idxs map[string]*index.Set

	mu      sync.Mutex
	byRoute map[bool]*preparedRows // IsShredded → converted rows
}

// indexesFor returns the bound secondary indexes keyed for the compilation's
// route (nil when the data has none).
func (pd *PreparedData) indexesFor(cq *runner.Compiled) map[string]*index.Set {
	if len(pd.idxs) == 0 {
		return nil
	}
	return cq.MapIndexes(pd.idxs)
}

type preparedRows struct {
	rows map[string][]dataflow.Row
	err  error
}

// BindData associates a dataset with the prepared query for repeated
// evaluation. The input bags are captured by reference and must not be
// mutated afterwards.
func (pq *PreparedQuery) BindData(inputs map[string]Bag) *PreparedData {
	return newPreparedData(inputs)
}

func newPreparedData(inputs map[string]Bag) *PreparedData {
	return &PreparedData{raw: inputs, byRoute: map[bool]*preparedRows{}}
}

func (pd *PreparedData) rowsFor(cq *runner.Compiled) (map[string][]dataflow.Row, error) {
	key := cq.Strategy.IsShredded()
	pd.mu.Lock()
	defer pd.mu.Unlock()
	if e, ok := pd.byRoute[key]; ok {
		return e.rows, e.err
	}
	var rows map[string][]dataflow.Row
	var err error
	if pd.convert == nil {
		rows, err = cq.InputRows(pd.raw)
	} else {
		rows = map[string][]dataflow.Row{}
		for name, b := range pd.raw {
			comps, cerr := pd.convert(cq, name, b)
			if cerr != nil {
				rows, err = nil, cerr
				break
			}
			for comp, rs := range comps {
				rows[comp] = rs
			}
		}
	}
	pd.byRoute[key] = &preparedRows{rows: rows, err: err}
	return rows, err
}

// RunBound is Run over data bound once with BindData: input conversion is
// cached per route, so the serving hot path does no per-request shredding.
// The data must have been bound by a query with the same input environment.
func (pq *PreparedQuery) RunBound(ctx context.Context, data *PreparedData, strat Strategy) (*Result, error) {
	return pq.runBound(ctx, data, strat, false)
}

// RunBoundAnalyzed is RunBound with EXPLAIN ANALYZE instrumentation (see
// RunAnalyzed).
func (pq *PreparedQuery) RunBoundAnalyzed(ctx context.Context, data *PreparedData, strat Strategy) (*Result, error) {
	return pq.runBound(ctx, data, strat, true)
}

func (pq *PreparedQuery) runBound(ctx context.Context, data *PreparedData, strat Strategy, analyze bool) (*Result, error) {
	cq, err := pq.tracedCompile(ctx, strat)
	if err != nil {
		return nil, fmt.Errorf("%s (%s): %w", pq.label(), strat, err)
	}
	bsp := trace.From(ctx).Span().Child("bind")
	rows, err := data.rowsFor(cq)
	bsp.End()
	if err != nil {
		return nil, fmt.Errorf("%s (%s): prepare inputs: %w", pq.label(), strat, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opts, finish := execOptions(ctx, analyze)
	res := cq.ExecuteRowsOpts(ctx, rows, data.indexesFor(cq), pq.runContext(strat), opts)
	finish(res)
	if res.Err != nil {
		return res, fmt.Errorf("%s (%s): %w", pq.label(), strat, res.Err)
	}
	return res, nil
}

// compiled returns the cached compilation for the strategy, compiling it
// exactly once process-wide per (fingerprint, strategy).
func (pq *PreparedQuery) compiled(strat Strategy) (*runner.Compiled, error) {
	cq, _, err := pq.compiledTracked(strat)
	return cq, err
}

// compiledTracked is compiled plus whether this call performed the
// compilation (false = served from the plan cache) — the trace layer's
// cache-hit attribution.
func (pq *PreparedQuery) compiledTracked(strat Strategy) (*runner.Compiled, bool, error) {
	entry := planCache.entry(pq.fp + "|" + strat.String())
	ran := false
	entry.once.Do(func() {
		pq.compileMu.Lock()
		defer pq.compileMu.Unlock()
		planCache.compiles.Add(1)
		ran = true
		entry.cq, entry.err = runner.Compile(pq.query, pq.env, strat, pq.cfg)
	})
	return entry.cq, ran, entry.err
}

// fingerprint digests everything that affects compilation: the query's
// canonical surface syntax, the sorted environment, and the
// compile-relevant config knobs. Execution-only knobs (parallelism, worker
// and memory bounds) are deliberately excluded so configs differing only in
// cluster sizing share compiled plans.
func fingerprint(q Expr, env Env, cfg Config) string {
	h := sha256.New()
	fmt.Fprintln(h, nrc.Print(q))
	names := make([]string, 0, len(env))
	for n := range env {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(h, "%s:%s\n", n, env[n])
	}
	fmt.Fprintf(h, "de=%t prune=%t pushdown=%t noidx=%t\n",
		cfg.DomainElimination, !cfg.NoColumnPruning, !cfg.NoPredicatePushdown, cfg.NoIndexScan)
	// Cost-model inputs: the broadcast limit and auto thresholds change what
	// Annotate/ChooseStrategy compile, and the statistics digest ties cached
	// plans to the dataset generation they were costed against — a Drop +
	// re-register under the same name yields new statistics (new generation)
	// and therefore a new fingerprint, never a stale cached route.
	fmt.Fprintf(h, "cost=%t bcast=%d skewat=%g selat=%g\n",
		!cfg.NoCostModel, cfg.BroadcastLimit, cfg.AutoSkewFraction, cfg.AutoSelectivity)
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
	mu       sync.Mutex
	m        map[string]*cacheEntry
	order    []string // insertion order, for bounded eviction
	compiles atomic.Int64
	hits     atomic.Int64
	evicts   atomic.Int64
}

var planCache = &compilationCache{m: map[string]*cacheEntry{}}

func (c *compilationCache) entry(key string) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok {
		c.hits.Add(1)
		return e
	}
	for len(c.m) >= maxPlanCacheEntries && len(c.order) > 0 {
		delete(c.m, c.order[0])
		c.order = c.order[1:]
		c.evicts.Add(1)
	}
	e := &cacheEntry{}
	c.m[key] = e
	c.order = append(c.order, key)
	return e
}

// CacheStats reports the compilation cache's counters.
type CacheStats struct {
	// Entries is the number of cached (query, strategy) compilations.
	Entries int
	// Compiles counts compilations actually performed.
	Compiles int64
	// Hits counts lookups served from the cache without compiling.
	Hits int64
	// Evictions counts entries dropped by the cache size bound.
	Evictions int64
}

// PlanCacheStats returns a snapshot of the process-wide compilation cache.
func PlanCacheStats() CacheStats {
	planCache.mu.Lock()
	n := len(planCache.m)
	planCache.mu.Unlock()
	return CacheStats{
		Entries:   n,
		Compiles:  planCache.compiles.Load(),
		Hits:      planCache.hits.Load(),
		Evictions: planCache.evicts.Load(),
	}
}

// ResetPlanCache empties the compilation cache (counters included).
// In-flight runs keep their entries; subsequent first uses recompile.
func ResetPlanCache() {
	planCache.mu.Lock()
	planCache.m = map[string]*cacheEntry{}
	planCache.order = nil
	planCache.mu.Unlock()
	planCache.compiles.Store(0)
	planCache.hits.Store(0)
	planCache.evicts.Store(0)
}
