package runner

import (
	"context"
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"github.com/trance-go/trance/internal/core"
	"github.com/trance-go/trance/internal/dataflow"
	"github.com/trance-go/trance/internal/exec"
	"github.com/trance-go/trance/internal/index"
	"github.com/trance-go/trance/internal/ingest"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/plan"
	"github.com/trance-go/trance/internal/shred"
	"github.com/trance-go/trance/internal/trace"
	"github.com/trance-go/trance/internal/value"
)

// Compiled holds every compile-time artifact of one (query, environment,
// strategy, config) combination: the statements Execute runs in order and, on
// shredded routes, the materialized program they came from. A Compiled is
// immutable after Compile returns and safe to Execute from many goroutines at
// once over different inputs — plan operators and their scalar expressions
// are pure, and every run gets its own executor and dataflow context. It is
// one step of a program; a program is a []*Compiled in step order.
type Compiled struct {
	// Name is the step name: what later steps of a program reference the
	// output by, and the materialization name of the shredded route ("Q" for
	// a query compiled on its own).
	Name     string
	Strategy Strategy
	Cfg      Config
	Env      nrc.Env
	// Out is the step's checked (nested) output type.
	Out nrc.Type
	// Columns is the flat schema of the dataset the step produces (see
	// OutputColumn); Execute hands the final step's to Result.Columns.
	Columns []OutputColumn
	// rowEnc renders rows of Columns as JSON; compiled with the plans, so a
	// cached route pays for it once (Result.WriteJSON).
	rowEnc *ingest.RowEncoder

	// Requested is the strategy Compile was asked for. It differs from
	// Strategy only when it was Auto: Strategy then holds the concrete route
	// ChooseStrategy resolved, and AutoReasons records why.
	Requested   Strategy
	AutoReasons []string

	// Mat is the materialized shredded program (shredded routes only).
	Mat *shred.Materialized
	// Stmts are the plans of the step in execution order: the one plan of a
	// standard route, the assignments of the shredded program, and after them
	// the pruned plan restoring nested output on an unshredding route.
	Stmts []Stmt
	// Opt accumulates the optimizer's rule-hit counters over every plan of
	// this compilation.
	Opt plan.OptStats
	// Idx accumulates the planner's Select→IndexScan conversions over every
	// plan of this compilation (zero when Config.NoIndexScan ablated them).
	Idx plan.IndexStats
}

// Stmt is one plan of a compiled step.
type Stmt struct {
	// Label heads the statement's section in Explain: "plan", "assignment
	// <name>" or "unshred plan".
	Label string
	// Bind is the name later statements (and steps) scan the statement's
	// dataset under; empty for a plan that only produces the step's output.
	Bind string
	// Raw is the plan before the optimizer and Plan the one that runs: the
	// optimized, annotated plan after plan.Fuse (which Config.NoColumnPruning
	// ablates with the rest of the column pruning) and plan.Colocate.
	Raw, Plan plan.Op
	// unfused is the optimized plan before plan.Fuse and plan.Colocate: what
	// Explain compares with Raw to say whether the optimizer changed the plan.
	unfused plan.Op
}

// addStmt optimizes raw, folding the rule hits into cq.Opt, and appends it to
// the step.
func (cq *Compiled) addStmt(label, bind string, raw plan.Op) {
	opt, st := cq.optimize(raw)
	cq.Opt.Add(st)
	cq.addOptimized(label, bind, raw, opt)
}

// addOptimized annotates and fuses opt, the optimized raw, and appends it to
// the step. Fuse runs after the optimizer and the cost model, so neither sees a
// fused operator; plan.Colocate runs last, except on the SparkSQL-style
// baseline, which reuses no placement.
func (cq *Compiled) addOptimized(label, bind string, raw, opt plan.Op) {
	st := Stmt{Label: label, Bind: bind, Raw: raw, unfused: cq.annotate(opt)}
	if st.Plan = st.unfused; !cq.Cfg.NoColumnPruning {
		st.Plan = plan.Fuse(st.unfused)
	}
	if cq.Strategy != SparkSQLStyle {
		st.Plan = plan.Colocate(st.Plan, cq.Strategy.skewAware())
	}
	cq.Stmts = append(cq.Stmts, st)
}

// spanName names the statement's execute span: "execute plan", "execute
// <name>" for an assignment, "execute unshred".
func (st Stmt) spanName() string {
	if st.Bind != "" {
		return "execute " + st.Bind
	}
	return "execute " + strings.TrimSuffix(st.Label, " plan")
}

// yieldsOutput reports whether st's dataset is (so far) the step's output: any
// plan that is not an assignment, or the top bag of a shredded program (only
// shredded routes, which have a Mat, hold assignments).
func (cq *Compiled) yieldsOutput(st Stmt) bool {
	return st.Bind == "" || st.Bind == cq.Mat.TopName
}

// recoverTo converts a panic into an error carrying the stack, so malformed
// queries degrade to failed compilations/runs instead of crashing the
// process (the serving layer turns these into HTTP errors).
func recoverTo(err *error, what string) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("%s panicked: %v\n%s", what, r, debug.Stack())
	}
}

// Compile runs typechecking, (shredded) compilation and plan pruning for the
// strategy exactly once, producing an artifact that can be executed many
// times. Compile-time panics are converted into errors.
//
// Compile type-annotates the query's AST in place (nrc.Check); do not
// Compile the same expression tree from several goroutines concurrently —
// the prepared-query layer serializes its per-strategy compilations for
// this reason.
func Compile(q nrc.Expr, env nrc.Env, strat Strategy, cfg Config) (*Compiled, error) {
	return CompileStep(q, env, strat, cfg, "Q")
}

// CompileStep is Compile with an explicit step name. Program steps need it: a
// step's materialized components are bound under the name, so later steps —
// compiled against shred.InputEnv(name, …) — resolve them.
func CompileStep(q nrc.Expr, env nrc.Env, strat Strategy, cfg Config, name string) (cq *Compiled, err error) {
	defer recoverTo(&err, "compile")
	out, cerr := nrc.Check(q, env)
	if cerr != nil {
		return nil, cerr
	}
	cq = &Compiled{Name: name, Strategy: strat, Cfg: cfg, Env: env, Out: out, Requested: strat}
	// The standard plan is built and optimized once: Auto chooses by reading
	// it, and a standard route runs that same plan.
	var raw, opt plan.Op
	var st plan.OptStats
	if !strat.IsShredded() {
		if raw, err = cq.standardPlan(q); err != nil {
			return nil, err
		}
		opt, st = cq.optimize(raw)
	}
	if strat == Auto {
		choice := ChooseStrategy(opt, env, cfg)
		cq.Strategy = choice.Strategy
		cq.AutoReasons = choice.Reasons
	}
	if cq.Strategy.IsShredded() {
		err := cq.compileShredded(q)
		if err == nil {
			return cq.finish(), nil
		}
		if cq.Requested != Auto {
			return nil, err
		}
		// Auto picked a shredded route the shredding compiler cannot handle
		// (e.g. an unsupported operator): fall back to the standard variant
		// with the same skew-awareness rather than failing the query.
		cq.AutoReasons = append(cq.AutoReasons,
			fmt.Sprintf("shredded route unavailable (%v); falling back to the standard variant", err))
		if cq.Strategy.skewAware() {
			cq.Strategy = StandardSkew
		} else {
			cq.Strategy = Standard
		}
		cq.Mat, cq.Stmts = nil, nil
	}
	cq.Opt.Add(st)
	cq.addOptimized("plan", "", raw, opt)
	return cq.finish(), nil
}

// finish derives the output schema from the compiled plans and counts an Auto
// resolution.
func (cq *Compiled) finish() *Compiled {
	cq.Columns = outputSchema(cq.OutputPlan(), cq.Out, cq.Strategy)
	cq.rowEnc = ingest.NewRowEncoder(cq.Columns)
	if cq.Requested == Auto {
		autoStrategy.Add(cq.Strategy.CLIName(), 1)
	}
	return cq
}

// OutputColumn describes one column of a strategy's output dataset.
type OutputColumn = nrc.Field

// outputSchema is the flat schema of the dataset a step produces. When the
// output is the nested value (standard and unshredding routes) the columns
// carry the checked output type's field names and types instead of the plan's
// internal column labels (which prefix nested fields with compiler variables,
// e.g. "co.odate"); for Shred the materialized top-bag columns (labels in
// place of inner bags) are returned unchanged.
func outputSchema(op plan.Op, out nrc.Type, strat Strategy) []OutputColumn {
	pcols := op.Columns()
	cols := make([]OutputColumn, len(pcols))
	for i, c := range pcols {
		cols[i] = OutputColumn{Name: c.Name, Type: c.Type}
	}
	if strat.IsShredded() && !strat.unshreds() {
		return cols
	}
	bt, ok := out.(nrc.BagType)
	if !ok {
		return cols
	}
	if tt, ok := bt.Elem.(nrc.TupleType); ok && len(tt.Fields) == len(cols) {
		for i, f := range tt.Fields {
			cols[i] = OutputColumn{Name: f.Name, Type: f.Type}
		}
		return cols
	}
	if len(cols) == 1 {
		cols[0].Type = bt.Elem
	}
	return cols
}

// annotate applies the cost model (plan.Annotate) when table statistics are
// available and the ablation knob is off. Shredded component scans carry no
// statistics, so annotation is a no-op for most shredded-plan internals — a
// documented limitation (docs/COSTMODEL.md).
func (cq *Compiled) annotate(op plan.Op) plan.Op {
	if cq.Cfg.NoCostModel || len(cq.Cfg.Stats) == 0 {
		return op
	}
	out, ist := plan.AnnotateOpts(op, cq.Cfg.Stats, plan.AnnotateOptions{
		BroadcastLimit: cq.Cfg.BroadcastLimit,
		NoIndexScan:    cq.Cfg.NoIndexScan,
	})
	cq.Idx.Add(ist)
	return out
}

// standardPlan compiles q on the standard route, up to the optimizer.
func (cq *Compiled) standardPlan(q nrc.Expr) (plan.Op, error) {
	c, err := core.NewCompiler(cq.Env)
	if err != nil {
		return nil, err
	}
	c.NoPrune = cq.Cfg.NoColumnPruning
	raw, err := c.Compile(q)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	return raw, nil
}

// optimize runs the rule-based plan optimizer (predicate pushdown, select
// fusion, constant folding) unless the ablation flag disables it.
func (cq *Compiled) optimize(op plan.Op) (plan.Op, plan.OptStats) {
	if cq.Cfg.NoPredicatePushdown {
		return op, plan.OptStats{}
	}
	return plan.Optimize(op)
}

func (cq *Compiled) compileShredded(q nrc.Expr) error {
	mat, err := shred.ShredQuery(q, cq.Env, cq.Name, shred.Options{DomainElimination: cq.Cfg.DomainElimination})
	if err != nil {
		return fmt.Errorf("shredding: %w", err)
	}
	cq.Mat = mat

	// Compiler environment: shredded components of every input.
	cenv := nrc.Env{}
	for name, t := range cq.Env {
		b, ok := t.(nrc.BagType)
		if !ok {
			return fmt.Errorf("input %s is not a bag", name)
		}
		ienv, err := shred.InputEnv(name, b)
		if err != nil {
			return err
		}
		for k, v := range ienv {
			cenv[k] = v
		}
	}
	c, err := core.NewCompiler(cenv)
	if err != nil {
		return err
	}
	c.NoPrune = cq.Cfg.NoColumnPruning
	stmts, err := c.CompileProgram(mat.Program)
	if err != nil {
		return fmt.Errorf("compile shredded: %w", err)
	}
	for _, st := range stmts {
		cq.addStmt("assignment "+st.Name, st.Name, st.Plan)
	}

	if cq.Strategy.unshreds() {
		uplan, err := shred.BuildUnshredPlan(mat)
		if err != nil {
			return fmt.Errorf("unshred plan: %w", err)
		}
		if !cq.Cfg.NoColumnPruning {
			uplan = plan.Prune(uplan)
		}
		cq.addStmt("unshred plan", "", uplan)
	}
	return nil
}

// NewRunContext builds the dataflow context Run uses for one execution under
// the config and strategy. Callers serving concurrent requests attach a
// shared worker pool (ctx.SharedPool) before executing.
func NewRunContext(cfg Config, strat Strategy) *dataflow.Context {
	ctx := dataflow.NewContext(cfg.Parallelism)
	ctx.Workers = cfg.Workers
	ctx.MaxPartitionBytes = cfg.MaxPartitionBytes
	ctx.BroadcastLimit = cfg.BroadcastLimit
	if strat == SparkSQLStyle {
		ctx.DisableGuarantees = true
	}
	return ctx
}

// InputRows converts nested inputs into the engine rows Execute binds:
// top-level rows for standard routes, value-shredded component rows for
// shredded routes. The conversion depends only on the route and the input
// environment, so callers evaluating a fixed dataset repeatedly (a serving
// process) compute it once and pass the result to Execute. The returned
// rows are never mutated by the engine and may be shared by any number of
// concurrent executions.
func (cq *Compiled) InputRows(inputs map[string]value.Bag) (map[string][]dataflow.Row, error) {
	rows := map[string][]dataflow.Row{}
	for name, b := range inputs {
		comps, err := cq.InputRowsOne(name, b)
		if err != nil {
			return nil, err
		}
		for comp, rs := range comps {
			rows[comp] = rs
		}
	}
	return rows, nil
}

// InputRowsOne converts a single named input into its engine datasets: one
// entry under the input's own name for non-shredded strategies, the
// value-shredded dictionary components for shredded ones. The result
// depends only on (name, bag, declared type, route kind), so callers
// evaluating many queries over the same dataset may convert once per route
// and share the rows (see trance.Session).
func (cq *Compiled) InputRowsOne(name string, b value.Bag) (rows map[string][]dataflow.Row, err error) {
	defer recoverTo(&err, "input preparation")
	if !cq.Strategy.IsShredded() {
		return map[string][]dataflow.Row{name: rowsOf(b)}, nil
	}
	bt, ok := cq.Env[name].(nrc.BagType)
	if !ok {
		return nil, fmt.Errorf("input %s is not a bag", name)
	}
	si, err := shred.ShredInput(name, b, bt)
	if err != nil {
		return nil, err
	}
	rows = map[string][]dataflow.Row{}
	for comp, ts := range si.Rows {
		rows[comp] = tuplesToRows(ts)
	}
	return rows, nil
}

// BuildIndexes constructs secondary-index sets for every input column the
// compile-time statistics flag as indexed, keyed for this compilation's route
// (see MapIndexes). It returns nil when no plan of this compilation carries
// an IndexScan, so callers without index scans pay nothing. Serving callers
// reuse the catalog's persistent indexes instead (see trance.Session);
// IndexScan degrades to a full scan plus its span predicate when executed
// without them, so passing nil is always sound.
func (cq *Compiled) BuildIndexes(inputs map[string]value.Bag) map[string]*index.Set {
	if cq.Idx.Planned == 0 {
		return nil
	}
	var byDataset map[string]*index.Set
	for name, b := range inputs {
		te, ok := cq.Cfg.Stats[name]
		if !ok {
			continue
		}
		bt, isBag := cq.Env[name].(nrc.BagType)
		if !isBag {
			continue
		}
		var set *index.Set
		for colName, ce := range te.Cols {
			if !ce.IndexHash && !ce.IndexOrdered {
				continue
			}
			off := colOffset(bt, colName)
			if off < 0 {
				continue
			}
			vals := make([]value.Value, len(b))
			for i, e := range b {
				if t, isT := e.(value.Tuple); isT {
					vals[i] = t[off]
				} else {
					vals[i] = e
				}
			}
			ci, err := index.Build(colName, ce.IndexHash, ce.IndexOrdered, vals)
			if err != nil {
				continue
			}
			if set == nil {
				set = index.NewSet()
			}
			set.Put(ci)
		}
		if set != nil {
			if byDataset == nil {
				byDataset = map[string]*index.Set{}
			}
			byDataset[name] = set
		}
	}
	return cq.MapIndexes(byDataset)
}

// colOffset finds a top-level scalar column's tuple offset ("_value" for
// scalar-element bags).
func colOffset(bt nrc.BagType, col string) int {
	if tt, ok := bt.Elem.(nrc.TupleType); ok {
		for i, f := range tt.Fields {
			if f.Name == col {
				return i
			}
		}
		return -1
	}
	if col == "_value" {
		return 0
	}
	return -1
}

// MapIndexes re-keys per-dataset index sets for this compilation's route:
// dataset names on standard routes, shredded top-component names on shredded
// routes. The mapping is sound because value shredding preserves top-level
// row order and keeps scalar columns in place (bags become labels), so the
// positions and keys of a dataset index address the top dictionary's rows
// verbatim.
func (cq *Compiled) MapIndexes(byDataset map[string]*index.Set) map[string]*index.Set {
	if len(byDataset) == 0 {
		return nil
	}
	if !cq.Strategy.IsShredded() {
		return byDataset
	}
	out := make(map[string]*index.Set, len(byDataset))
	for name, s := range byDataset {
		out[shred.MatName(name, nil)] = s
	}
	return out
}

// ExecOptions carries per-execution observability hooks; they apply to every
// step of the program.
type ExecOptions struct {
	// Analysis, when non-nil, collects per-operator runtime statistics
	// (EXPLAIN ANALYZE) into the given collector; the Result carries it as
	// Result.Analyze. Nil leaves execution uninstrumented.
	Analysis *plan.Analysis
	// Span, when non-nil, receives per-statement execute child spans.
	Span *trace.Span
}

// Execute is the one way a compiled program reaches the engine: it builds the
// executor on dctx, binds the pre-converted input rows (InputRows) and the
// secondary indexes keyed like them (MapIndexes; nil is always sound —
// IndexScan then falls back to a full scan plus its span predicate), and runs
// the steps in order. A query is the one-step program. All steps share the
// executor, so each step's output — the nested dataset on standard routes, the
// materialized shredded components on shredded routes — is visible to later
// steps without re-conversion (paper Section 4), and only the final step of an
// unshredding strategy restores nested output. Input preparation stays
// outside the timed region — the paper reports runtime after caching all
// inputs.
//
// Execute shares no mutable state between executions of the same program, so
// any number may run concurrently; panics anywhere in execution degrade to
// Result.Err. Cancellation of ctx is honored between statements (best effort
// — an individual statement runs to completion).
func Execute(ctx context.Context, prog []*Compiled, rows map[string][]dataflow.Row, idxs map[string]*index.Set, dctx *dataflow.Context, opts ExecOptions) *Result {
	last := prog[len(prog)-1]
	res := &Result{Strategy: last.Strategy, Mat: last.Mat, Columns: last.Columns, Analyze: opts.Analysis, FailedStep: -1, prog: prog}
	func() {
		var err error
		step := 0
		defer func() {
			if err != nil {
				res.FailedStep, res.Err = step, err
			}
		}()
		defer recoverTo(&err, "execute")
		ex := exec.New(dctx)
		ex.SkewAware = last.Strategy.skewAware()
		ex.Indexes = idxs
		ex.Analysis = opts.Analysis
		for name, r := range rows {
			ex.BindRows(name, r)
		}
		for i, cq := range prog {
			step = i
			start := time.Now()
			err = cq.execute(ctx, ex, res, opts.Span)
			d := time.Since(start)
			res.StepElapsed = append(res.StepElapsed, d)
			res.Elapsed += d
			if err != nil {
				if len(prog) > 1 {
					err = fmt.Errorf("step %s: %w", cq.Name, err)
				}
				return
			}
			if i == len(prog)-1 {
				break
			}
			// Bind the step's output as an input of later steps: the nested
			// dataset under the step name, or the shredded top bag under the
			// MatName convention (the step's dictionaries were already bound
			// per materialized assignment by execute).
			if cq.Strategy.IsShredded() {
				ex.Bind(shred.MatName(cq.Name, nil), res.Shredded[cq.Mat.TopName])
			} else {
				ex.Bind(cq.Name, res.Output)
			}
		}
	}()
	res.Metrics = dctx.Metrics.Snapshot()
	return res
}

// ExecuteInputs is Execute for one-shot callers holding nested values: it
// converts the inputs (InputRows) and builds the indexes the plans planned
// (BuildIndexes) on every call. Callers evaluating a fixed dataset repeatedly
// convert once and call Execute.
func ExecuteInputs(ctx context.Context, prog []*Compiled, inputs map[string]value.Bag, dctx *dataflow.Context, opts ExecOptions) *Result {
	rows, err := prog[0].InputRows(inputs)
	if err != nil {
		res := Failure(prog[len(prog)-1].Strategy, err)
		res.Metrics = dctx.Metrics.Snapshot()
		return res
	}
	var idxs map[string]*index.Set
	for _, cq := range prog {
		if idxs = cq.BuildIndexes(inputs); idxs != nil {
			break
		}
	}
	return Execute(ctx, prog, rows, idxs, dctx, opts)
}

// execute runs the step's statements in order on the program's executor. An
// assignment is bound for the statements after it and kept in res.Shredded; the
// last statement yielding output leaves it in res.Output. sp, when non-nil,
// receives one child span per executed statement.
func (cq *Compiled) execute(ctx context.Context, ex *exec.Executor, res *Result, sp *trace.Span) error {
	if cq.Mat != nil {
		res.Shredded = map[string]*dataflow.Dataset{}
	}
	for _, st := range cq.Stmts {
		if err := ctx.Err(); err != nil {
			return err
		}
		ssp := sp.Child(st.spanName())
		d, err := ex.Run(st.Plan)
		if err == nil {
			err = d.Force().Err() // charge trailing fused narrow work to the timed region
		}
		ssp.End()
		if err != nil {
			if st.Bind != "" {
				err = fmt.Errorf("%s: %w", st.Label, err)
			}
			return err
		}
		if st.Bind != "" {
			ex.Bind(st.Bind, d)
			res.Shredded[st.Bind] = d
		}
		if cq.yieldsOutput(st) {
			res.Output = d
		}
	}
	return nil
}

// OutputPlan returns the plan whose column schema matches the Output dataset
// Execute produces: the standard plan, the unshred plan, or the shredded
// program's top assignment.
func (cq *Compiled) OutputPlan() (out plan.Op) {
	for _, st := range cq.Stmts {
		if cq.yieldsOutput(st) {
			out = st.Plan
		}
	}
	return out
}
