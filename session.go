package trance

import (
	"context"
	"errors"
	"maps"
	"slices"
	"sync"

	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/parse"
	"github.com/trance-go/trance/internal/runner"
	"github.com/trance-go/trance/internal/trace"
)

// SessionOptions configures a catalog session.
type SessionOptions struct {
	// Config sizes the simulated cluster; nil means DefaultConfig().
	Config *Config
	// Pool overrides the worker pool the session's queries run on. Nil uses
	// a pool sized by Config.Workers when set, else the process default.
	Pool *Pool
	// Bindings maps query variable names to catalog dataset names when they
	// differ (e.g. a query over "NDB" served from the dataset "tpch/ndb-l2").
	// Unlisted variables resolve to the dataset of the same name.
	Bindings map[string]string
}

// Session prepares and runs queries whose free variables resolve against a
// catalog. A session query is generation-aware: each Run probes the catalog
// and, when any referenced dataset mutated since the last resolution (Append,
// Delete, CreateIndex, Drop + re-Register), re-resolves data, statistics, and
// indexes and re-prepares through the plan cache — a mutation is never served
// from stale rows or a stale plan. Runs already executing keep the snapshot
// they started with; a dataset that is dropped and not re-registered keeps
// serving its last snapshot. Sessions are safe for concurrent use.
//
// Converted input rows belong to the dataset generation, not to a session: the
// nested→engine-row conversion (value shredding on shredded routes) of each
// (dataset generation, variable name, route) happens once, however many
// sessions and queries reference it, and is released with the generation — so
// a service preparing many ad-hoc text queries over one dataset holds one
// converted copy, not one per query.
type Session struct {
	cat  *Catalog
	cfg  Config
	pool *Pool
	bind map[string]string
}

// NewSession creates a session over the catalog.
func (c *Catalog) NewSession(opts SessionOptions) *Session {
	cfg := DefaultConfig()
	if opts.Config != nil {
		cfg = *opts.Config
	}
	pool := opts.Pool
	if pool == nil && cfg.Workers > 0 {
		pool = NewPool(cfg.Workers)
	}
	bind := map[string]string{}
	for k, v := range opts.Bindings {
		bind[k] = v
	}
	return &Session{cat: c, cfg: cfg, pool: pool, bind: bind}
}

// Prepare resolves the query's free variables against the catalog,
// typechecks it and sets up compile-once evaluation: the query is the one-step
// program, its step named "Q" (or, when a free variable already has that
// name, the first of "Q_", "Q__", … that none has). Each (query, strategy)
// pair is compiled — NRC typecheck, standard or shredded compilation, plan
// pruning — exactly once and cached in a process-wide, thread-safe,
// fingerprint-keyed compilation cache, no matter how many goroutines Run
// concurrently. Compile- and run-time panics surface as errors, so a
// malformed query cannot crash a serving process. The session takes
// ownership of the query's AST (compilation annotates it in place); do not
// share one expression tree between concurrent Prepare calls.
func (s *Session) Prepare(q Expr) (*SessionQuery, error) { return s.PrepareNamed("", q) }

// PrepareNamed is Prepare with a label used in errors and metrics.
func (s *Session) PrepareNamed(name string, q Expr) (*SessionQuery, error) {
	vars := nrc.FreeVars(q)
	return s.newQuery(name, []PipelineStep{{Name: queryStep(vars), Expr: q}}, vars)
}

// PreparePipeline is Prepare for a multi-step program: every step typechecks
// against the catalog's datasets extended with the outputs of prior steps,
// the steps' free variables (outputs of earlier steps are not free) resolve
// against the catalog, and repeated runs hit the plan cache for every step and
// re-resolve when a referenced dataset mutates. The session takes ownership of
// the step ASTs.
func (s *Session) PreparePipeline(steps []PipelineStep) (*SessionQuery, error) {
	return s.newQuery("", slices.Clone(steps), nrc.FreeVarsProgram(steps))
}

func (s *Session) newQuery(name string, steps []PipelineStep, vars map[string]bool) (*SessionQuery, error) {
	sq := &SessionQuery{s: s, name: name, steps: steps, vars: slices.Sorted(maps.Keys(vars))}
	sq.mu.Lock()
	defer sq.mu.Unlock()
	if err := sq.refreshLocked(); err != nil {
		return nil, err
	}
	return sq, nil
}

// PrepareText parses a query or a multi-statement program written in the
// textual surface syntax (see docs/QUERYLANG.md, trance.Parse and
// trance.ParseProgram) and prepares it against the catalog: a bare expression
// exactly like Prepare, a program (`name := expr;` assignments ending in a
// result expression) like PreparePipeline. Free variables resolve to datasets
// (respecting the session's bindings), every step compiles through the
// process-wide bounded plan cache under its fingerprint, and the resolved data
// is bound once for repeated runs. Lex, parse, resolution, and type errors —
// in any statement — all come back as position-tracked caret diagnostics
// pointing into src, never a panic.
func (s *Session) PrepareText(name, src string) (*SessionQuery, error) {
	r, err := parse.Program(src)
	if err != nil {
		return nil, err
	}
	var sq *SessionQuery
	if r.Query {
		sq, err = s.PrepareNamed(name, r.Program.Stmts[0].Expr)
	} else {
		sq, err = s.newQuery(name, r.Program.Stmts, nrc.FreeVarsProgram(r.Program.Stmts))
	}
	if err != nil {
		return nil, diagnose(&r.Source, err)
	}
	return sq, nil
}

// diagnose points a prepare-time error back into parsed query text: type
// errors via the node position map, unresolved datasets via the first
// occurrence of the offending variable. Errors with no known position pass
// through unchanged.
func diagnose(src *parse.Source, err error) error {
	var ue *UnknownDatasetError
	if errors.As(err, &ue) {
		if node, ok := src.FirstVar(ue.Var); ok {
			return src.ErrorAt(node, err.Error())
		}
	}
	return src.Diagnose(err)
}

// SessionQuery is a query or multi-step program prepared against a catalog —
// the one way to run either: compiled plans come from the process-wide plan
// cache, input conversion is cached per route on the catalog generation, any
// number of goroutines may Run concurrently, and every Run re-resolves against
// the catalog when a referenced dataset's generation moved (see Session).
type SessionQuery struct {
	s     *Session
	name  string
	steps []PipelineStep
	vars  []string

	// compileMu serializes typechecking and compilation of the steps, which
	// annotate their ASTs in place; every generation's PreparedQuery shares it.
	compileMu sync.Mutex

	mu     sync.Mutex // guards the cached resolution below
	pq     *PreparedQuery
	inputs runner.Inputs
	gens   map[string]int64
}

// refreshLocked re-resolves the query against the catalog's current
// generations and re-prepares it under their statistics. Caller holds sq.mu.
func (sq *SessionQuery) refreshLocked() error {
	s := sq.s
	entries, ests, err := s.cat.resolve(sq.vars, s.bind)
	if err != nil {
		return err
	}
	env, gens, inputs := Env{}, map[string]int64{}, runner.Inputs{}
	for v, e := range entries {
		env[v], gens[v], inputs[v] = e.info.Type, e.gen, e.input(v)
	}
	sq.compileMu.Lock()
	pq, err := prepare(sq.name, sq.steps, env, s.cfg, ests, s.pool, &sq.compileMu)
	sq.compileMu.Unlock()
	if err != nil {
		return err
	}
	sq.pq, sq.inputs, sq.gens = pq, inputs, gens
	return nil
}

// current returns the prepared program and bound inputs for a run,
// re-resolving when any referenced dataset's generation moved. The staleness
// probe is one read-locked walk; a refresh re-prepares through the plan cache
// (a generation-stamped fingerprint, so unchanged plans are cache hits).
func (sq *SessionQuery) current() (*PreparedQuery, runner.Inputs, error) {
	sq.mu.Lock()
	defer sq.mu.Unlock()
	if sq.s.cat.generationsUnchanged(sq.vars, sq.s.bind, sq.gens) {
		return sq.pq, sq.inputs, nil
	}
	if err := sq.refreshLocked(); err != nil {
		// A referenced dataset was dropped without a replacement: keep
		// serving the last snapshot rather than failing the serving path.
		var ue *UnknownDatasetError
		if !errors.As(err, &ue) {
			return nil, nil, err
		}
	}
	return sq.pq, sq.inputs, nil
}

// Prepared exposes the underlying prepared query (schema, fingerprint,
// explain), refreshed against the catalog like Run; when the refresh fails it
// is the last one that resolved.
func (sq *SessionQuery) Prepared() *PreparedQuery {
	if pq, _, err := sq.current(); err == nil {
		return pq
	}
	sq.mu.Lock()
	defer sq.mu.Unlock()
	return sq.pq
}

// Run evaluates the query under the strategy over the current catalog
// generations of the referenced datasets (re-resolving after mutations; see
// Session). The Result's rows, Columns and plans all come from the one
// generation the run resolved to; Result.JSON and Result.WriteJSON render its
// rows. A nil Result means the query did not resolve or compile (or ctx was
// already done); failures from there on (including recovered panics) return
// the Result — its Metrics, StepElapsed and FailedStep are valid — beside
// the error. Cancellation of ctx is honored between plan statements. When
// ctx carries a trace the run records resolve, compile, bind and execute
// spans and stamps Result.TraceID.
func (sq *SessionQuery) Run(ctx context.Context, strat Strategy, opts ...RunOption) (*Result, error) {
	rsp := trace.From(ctx).Span().Child("resolve")
	pq, inputs, err := sq.current()
	if err == nil {
		rsp.Set("query", pq.label())
	}
	rsp.End()
	if err != nil {
		return nil, err
	}
	return pq.run(ctx, inputs, strat, opts...)
}
