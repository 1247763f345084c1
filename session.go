package trance

import (
	"context"
	"errors"
	"sort"
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
	pool := poolFor(cfg, opts.Pool)
	bind := map[string]string{}
	for k, v := range opts.Bindings {
		bind[k] = v
	}
	return &Session{cat: c, cfg: cfg, pool: pool, bind: bind}
}

// Prepare resolves the query's free variables against the catalog,
// typechecks and sets up compile-once evaluation (see Prepare), and binds
// the resolved datasets for repeated runs (see PreparedQuery.BindData). The
// session takes ownership of the query's AST.
func (s *Session) Prepare(q Expr) (*SessionQuery, error) { return s.PrepareNamed("", q) }

// PrepareNamed is Prepare with a label used in errors and metrics.
func (s *Session) PrepareNamed(name string, q Expr) (*SessionQuery, error) {
	return s.newQuery(name, nrc.FreeVars(q), func(opts PrepareOptions) (*PreparedQuery, error) {
		return Prepare(q, opts)
	})
}

// PreparePipeline is Prepare for a multi-step program (see PreparePipeline):
// the steps' free variables (outputs of earlier steps are not free) resolve
// against the catalog, repeated runs hit the plan cache for every step and
// re-resolve when a referenced dataset mutates.
func (s *Session) PreparePipeline(steps []PipelineStep) (*SessionQuery, error) {
	return s.preparePipeline("", steps)
}

func (s *Session) preparePipeline(name string, steps []PipelineStep) (*SessionQuery, error) {
	return s.newQuery(name, nrc.FreeVarsProgram(steps), func(opts PrepareOptions) (*PreparedQuery, error) {
		return PreparePipeline(steps, opts)
	})
}

func (s *Session) newQuery(name string, vars map[string]bool, prepare func(PrepareOptions) (*PreparedQuery, error)) (*SessionQuery, error) {
	sq := &SessionQuery{s: s, name: name, prepare: prepare, vars: make([]string, 0, len(vars))}
	for v := range vars {
		sq.vars = append(sq.vars, v)
	}
	sort.Strings(sq.vars)
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
		sq, err = s.preparePipeline(name, r.Program.Stmts)
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

// SessionQuery is a query or multi-step program prepared against a catalog:
// compiled plans come from the process-wide plan cache, input conversion is
// cached per route on the catalog generation, any number of goroutines may
// Run concurrently, and every Run re-resolves against the catalog when a
// referenced dataset's generation moved (see Session).
type SessionQuery struct {
	s       *Session
	name    string
	prepare func(PrepareOptions) (*PreparedQuery, error)
	vars    []string

	mu   sync.Mutex // guards the cached resolution below
	pq   *PreparedQuery
	data *PreparedData
	gens map[string]int64
}

// refreshLocked re-resolves the query against the catalog's current
// generations and re-prepares it. Caller holds sq.mu.
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
	cfg := s.cfg
	if len(ests) > 0 {
		cfg.Stats = ests
	}
	opts := PrepareOptions{Name: sq.name, Env: env, Config: &cfg, Pool: s.pool}
	// Re-preparing shares the ASTs with the prior generation's prepared query,
	// and both Prepare's typecheck and lazy compilation annotate them in place
	// — so every generation serializes on one compile mutex.
	var pq *PreparedQuery
	if sq.pq != nil {
		mu := sq.pq.compileMu
		mu.Lock()
		pq, err = sq.prepare(opts)
		if pq != nil {
			pq.compileMu = mu
		}
		mu.Unlock()
	} else {
		pq, err = sq.prepare(opts)
	}
	if err != nil {
		return err
	}
	sq.pq, sq.data, sq.gens = pq, &PreparedData{inputs: inputs}, gens
	return nil
}

// current returns the prepared artifacts for a run, re-resolving when any
// referenced dataset's generation moved. The staleness probe is one
// read-locked walk; a refresh re-prepares through the plan cache (a
// generation-stamped fingerprint, so unchanged plans are cache hits).
func (sq *SessionQuery) current() (*PreparedQuery, *PreparedData, error) {
	sq.mu.Lock()
	defer sq.mu.Unlock()
	if sq.s.cat.generationsUnchanged(sq.vars, sq.s.bind, sq.gens) {
		return sq.pq, sq.data, nil
	}
	if err := sq.refreshLocked(); err != nil {
		// A referenced dataset was dropped without a replacement: keep
		// serving the last snapshot rather than failing the serving path.
		var ue *UnknownDatasetError
		if !errors.As(err, &ue) {
			return nil, nil, err
		}
	}
	return sq.pq, sq.data, nil
}

// Prepared exposes the underlying prepared query (output type, schema,
// fingerprint, explain), refreshed against the catalog like Run; when the
// refresh fails it is the last one that resolved.
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
// Session), exactly like PreparedQuery.Run over the data the session bound —
// plus a resolve span when ctx carries a trace. The Result's rows, Columns
// and plans all come from the one generation the run resolved to.
func (sq *SessionQuery) Run(ctx context.Context, strat Strategy, opts ...RunOption) (*Result, error) {
	rsp := trace.From(ctx).Span().Child("resolve")
	pq, data, err := sq.current()
	if err == nil {
		rsp.Set("query", pq.label())
	}
	rsp.End()
	if err != nil {
		return nil, err
	}
	return pq.Run(ctx, data, strat, opts...)
}

// RunJSON is Run plus Result.JSON: the result rows rendered as objects typed
// by the run's own output schema — the query half of the catalog's JSON-in →
// query → JSON-out round trip. Rows come back in the engine's canonical
// sorted order, so output is deterministic.
func (sq *SessionQuery) RunJSON(ctx context.Context, strat Strategy) ([]map[string]any, error) {
	res, err := sq.Run(ctx, strat)
	if err != nil {
		return nil, err
	}
	esp := trace.From(ctx).Span().Child("encode")
	defer esp.End()
	rows, _ := res.JSON(0)
	return rows, nil
}
