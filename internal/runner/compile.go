package runner

import (
	"context"
	"fmt"
	"maps"
	"runtime/debug"
	"slices"
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
)

// Compiled holds every compile-time artifact of one (query, environment,
// strategy, config, statistics) combination: the statements Execute runs in order and, on
// shredded routes, the materialized program they came from. A Compiled is
// immutable after CompileStep returns and safe to Execute from many
// goroutines at once over different inputs — plan operators and their scalar
// expressions are pure, and every run gets its own executor and dataflow
// context. It is one step of a program; a program is a []*Compiled in step
// order.
type Compiled struct {
	// Name is the step name: what later steps of a program reference the
	// output by, and the materialization name of the shredded route ("Q" for
	// a query, the one-step program).
	Name     string
	Strategy Strategy
	Cfg      Config
	Env      nrc.Env
	// Out is the step's checked (nested) output type.
	Out nrc.Type
	// Columns is the flat schema of the step's nested output (see
	// OutputColumn); Execute hands the final step's to Result.Columns.
	Columns []OutputColumn
	// rowEnc renders rows of Columns as JSON, and topCols and topEnc are the
	// shredded top bag's schema and encoder (Result.Top; shredded routes
	// only); compiled with the plans, so a cached route pays for them once.
	rowEnc  *ingest.RowEncoder
	topCols []OutputColumn
	topEnc  *ingest.RowEncoder

	// Requested is the strategy CompileStep was asked for. It differs from
	// Strategy only when it was Auto: Strategy then holds the concrete route
	// ChooseStrategy resolved, and AutoReasons records why.
	Requested   Strategy
	AutoReasons []string

	// Mat is the materialized shredded program (shredded routes only).
	Mat *shred.Materialized
	// Stmts are the plans of the step in execution order: the one plan of a
	// standard route, or the assignments of the shredded program, whose
	// nested output is stitched from theirs (see Output).
	Stmts []Stmt
	// Opt accumulates the optimizer's rule-hit counters over every plan of
	// this compilation.
	Opt plan.OptStats
	// Idx accumulates the planner's Select→IndexScan conversions over every
	// plan of this compilation (zero when no statistics flag an index).
	Idx plan.IndexStats

	// stats are the per-input statistics the plans are costed against
	// (annotate).
	stats map[string]plan.TableEstimate
	// dicts are the dictionary components of the step's inputs on a shredded
	// route, and placedOn the keys Execute binds each component with labels
	// hash-placed on, root-aligned (Inputs.Bind): every label column.
	dicts    []string
	placedOn map[string][][]int
}

// Stmt is one plan of a compiled step.
type Stmt struct {
	// Label heads the statement's section in Explain: "plan" or "assignment
	// <name>".
	Label string
	// Bind is the name later statements (and steps) scan the statement's
	// dataset under; empty for a plan that only produces the step's output.
	Bind string
	// Raw is the plan before the optimizer and Plan the one that runs: the
	// optimized, annotated plan after plan.Fuse (which Config.NoColumnPruning
	// ablates with the rest of the column pruning) and plan.Place.
	Raw, Plan plan.Op
	// unfused is the optimized plan before plan.Fuse and plan.Place: what
	// Explain compares with Raw to say whether the optimizer changed the plan.
	unfused plan.Op
	// placed is the hash placement of the statement's dataset (plan.Place),
	// which a later statement or step scanning Bind finds it in.
	placed [][]int
	// src, on a dictionary statement a final step may leave unforced (see
	// markDeferrable), is where its rows of one label come from; nil
	// otherwise.
	src *labelSource
}

// labelSource is where a deferrable statement's rows of one label come from:
// the rows of input that carry the label — a dictionary placed on it, its
// column 0, or, when minted, the rows of a flat input whose columns args the
// statement's MkLabel at site makes the label of.
type labelSource struct {
	input  string
	minted bool
	site   int32
	args   []int
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
// fused operator; plan.Place runs last.
func (cq *Compiled) addOptimized(label, bind string, raw, opt plan.Op) {
	st := Stmt{Label: label, Bind: bind, Raw: raw, unfused: cq.annotate(opt)}
	if st.Plan = st.unfused; !cq.Cfg.NoColumnPruning {
		st.Plan = plan.Fuse(st.unfused)
	}
	cq.Stmts = append(cq.Stmts, cq.place(st, cq.bound(nil)))
}

// place runs plan.Place over st, whose scans of the names in bound find the
// datasets there placed as bound says. The SparkSQL-style baseline reuses no
// placement: every exchange of its plans runs.
func (cq *Compiled) place(st Stmt, bound map[string][][]int) Stmt {
	if cq.Strategy != SparkSQLStyle {
		st.Plan, st.placed = plan.Place(st.Plan, plan.PlaceOptions{
			SkewAware:   cq.Strategy.SkewAware(),
			NoBroadcast: cq.Cfg.BroadcastLimit <= 0,
			Bound:       bound,
		})
	}
	return st
}

// bound is where the datasets the step's statements scan lie: its input
// components on their label columns, then outer (nil: none), then the
// datasets the step's statements bound so far, under the names later
// statements scan them by. Within a program outer holds the earlier steps'
// outputs, which a later step's environment lists as inputs.
func (cq *Compiled) bound(outer map[string][][]int) map[string][][]int {
	b := maps.Clone(cq.placedOn)
	if b == nil {
		b = map[string][][]int{}
	}
	maps.Copy(b, outer)
	for _, st := range cq.Stmts {
		if st.Bind != "" {
			b[st.Bind] = st.placed
		}
	}
	return b
}

// placeProgram returns prog with every step after the first placed again over
// where the datasets earlier steps leave bound lie (Execute binds them): a
// step compiles, and is cached, on its own, so only here does it learn where
// an earlier step's output lies.
func placeProgram(prog []*Compiled) []*Compiled {
	if len(prog) == 1 {
		return prog
	}
	out := slices.Clone(prog)
	bound := map[string][][]int{}
	for i, cq := range prog {
		if i > 0 {
			c := *cq
			c.Stmts = nil
			for _, st := range cq.Stmts {
				c.Stmts = append(c.Stmts, c.place(st, c.bound(bound)))
			}
			out[i] = &c
		}
		bound = out[i].bound(bound)
		bound[cq.stepName()] = out[i].output().placed
	}
	return out
}

// spanName names the statement's execute span: "execute plan", or "execute
// <name>" for an assignment.
func (st Stmt) spanName() string {
	if st.Bind != "" {
		return "execute " + st.Bind
	}
	return "execute plan"
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

// CompileStep runs typechecking, (shredded) compilation and plan pruning of
// one program step for the strategy, producing an artifact that can be
// executed many times. The step name matters to programs: a step's
// materialized components are bound under it, so later steps — compiled
// against shred.InputEnv(name, …) — resolve them. Compile-time panics are
// converted into errors.
//
// stats holds per-input table statistics, keyed by the input variable name,
// for the cost-based planning layer: join method choice, input ordering and
// index scans (plan.Annotate) and the Auto strategy's route selection. A
// session passes the catalog statistics of the generations it resolved to;
// nil disables all of them, and statistics flagging no Indexed column plan
// no index scan.
//
// CompileStep type-annotates the query's AST in place (nrc.Check); do not
// compile the same expression tree from several goroutines concurrently —
// the prepared-query layer, its one caller, serializes its per-strategy
// compilations for this reason.
func CompileStep(q nrc.Expr, env nrc.Env, strat Strategy, cfg Config, stats map[string]plan.TableEstimate, name string) (cq *Compiled, err error) {
	defer recoverTo(&err, "compile")
	out, cerr := nrc.Check(q, env)
	if cerr != nil {
		return nil, cerr
	}
	cq = &Compiled{Name: name, Strategy: strat, Cfg: cfg, Env: env, Out: out, Requested: strat, stats: stats}
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
		choice := ChooseStrategy(opt, env, out, stats)
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
		if cq.Strategy.SkewAware() {
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

// finish derives the output schemas from the compiled plans and counts an
// Auto resolution under the name of the nested form an Auto run is read in.
func (cq *Compiled) finish() *Compiled {
	var cols []OutputColumn
	for _, c := range cq.OutputPlan().Columns() {
		cols = append(cols, OutputColumn(c))
	}
	if cq.Mat != nil {
		cq.topCols = slices.Clone(cols)
		cq.topEnc = ingest.NewRowEncoder(cq.topCols)
	}
	cq.Columns = outputSchema(cols, cq.Out)
	cq.rowEnc = ingest.NewRowEncoder(cq.Columns)
	if cq.Requested == Auto {
		autoStrategy.Add(cq.Strategy.name(2), 1)
	}
	return cq
}

// OutputColumn describes one column of a strategy's output dataset.
type OutputColumn = nrc.Field

// outputSchema is the flat schema of the nested value a step produces: cols,
// the columns of the plan yielding it (on a shredded route the top bag, a
// label in place of each inner bag), carrying the checked output type's field
// names and types instead of the plan's internal column labels (which prefix
// nested fields with compiler variables, e.g. "co.odate").
func outputSchema(cols []OutputColumn, out nrc.Type) []OutputColumn {
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

// annotate applies the cost model (plan.Annotate) over the step's table
// statistics; without any it leaves the plan as it is. Dictionary scans
// carry no statistics (a top component carries its input's), so a shredded
// plan's joins are costed only where a known side decides them — a
// documented limitation (docs/COSTMODEL.md).
func (cq *Compiled) annotate(op plan.Op) plan.Op {
	out, ist := plan.Annotate(op, cq.stats, cq.Cfg.BroadcastLimit)
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

// keepReadTops keeps each of tops, top components of the step's inputs,
// bound placed only where a plan decision reads its placement: where the
// step placed again without it decides every exchange, join method and reduce
// as before, it is bound as its rows are, in input order, and the step runs
// placed that way. Its placement pays only where a join lines it up with a
// dictionary; elsewhere it would only reorder the step's output and cost a
// concatenation per generation.
func (cq *Compiled) keepReadTops(tops []string) {
	for _, top := range tops {
		keys := cq.placedOn[top]
		delete(cq.placedOn, top)
		c := *cq
		c.Stmts = nil
		for _, st := range cq.Stmts {
			c.Stmts = append(c.Stmts, c.place(st, c.bound(nil)))
		}
		if placeDecisions(c.Stmts) == placeDecisions(cq.Stmts) {
			cq.Stmts = c.Stmts
		} else {
			cq.placedOn[top] = keys
		}
	}
}

// placeDecisions renders every decision plan.Place took on stmts.
func placeDecisions(stmts []Stmt) string {
	var b strings.Builder
	for _, st := range stmts {
		walkPlan(st.Plan, func(op plan.Op) {
			switch x := op.(type) {
			case *plan.Join:
				fmt.Fprint(&b, "⋈", x.Placed, x.KeepSplit)
				if x.Cost != nil {
					fmt.Fprint(&b, x.Cost.Method)
				}
			case *plan.Nest:
				fmt.Fprint(&b, "Γ", x.Local, x.Combine)
			case *plan.DedupOp:
				fmt.Fprint(&b, "dedup", x.Local, x.Combine)
			case *plan.BagToDict:
				fmt.Fprint(&b, "bagToDict", x.Placed, x.KeepSplit)
			}
		})
		b.WriteString(";")
	}
	return b.String()
}

// placedIn reports whether a step of prog binds input component name placed.
func placedIn(prog []*Compiled, name string) bool {
	return slices.ContainsFunc(prog, func(cq *Compiled) bool { return cq.placedOn[name] != nil })
}

// labelColumns is each label column of a shredded input component of type t,
// as a one-column key: what value shredding places the component on.
func labelColumns(t nrc.Type) (keys [][]int) {
	bt, _ := t.(nrc.BagType)
	tt, _ := bt.Elem.(nrc.TupleType)
	for i, f := range tt.Fields {
		if nrc.TypesEqual(f.Type, nrc.LabelT) {
			keys = append(keys, []int{i})
		}
	}
	return keys
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
	var tops []string
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
			if k != shred.MatName(name, nil) {
				cq.dicts = append(cq.dicts, k)
			}
			if keys := labelColumns(v); keys != nil {
				if cq.placedOn == nil {
					cq.placedOn = map[string][][]int{}
				}
				cq.placedOn[k] = keys
				if k == shred.MatName(name, nil) {
					tops = append(tops, k)
				}
			}
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
	cq.keepReadTops(tops)
	cq.markDeferrable()
	return nil
}

// markDeferrable sets src on every statement Execute may leave unforced when
// the step is a program's last: a dictionary of the output that no later
// statement scans, whose plan is partition-local — no exchange, no addIndex,
// whose sequence numbers depend on the partition — and label-closed — each of
// its output rows of a label comes from input rows of that label alone
// (labelClosed). A limited reply then runs the plan over just the input rows
// of the labels it returns, which keeps each label's rows, and their order,
// as the whole plan leaves them, instead of forcing the whole dictionary. A
// run under a memory cap defers nothing: every statement is sized where it
// runs.
func (cq *Compiled) markDeferrable() {
	if cq.Cfg.MaxPartitionBytes > 0 {
		return
	}
	scanned, bound := map[string]bool{}, map[string]bool{}
	for _, st := range cq.Stmts {
		bound[st.Bind] = true
	}
	for i := len(cq.Stmts) - 1; i >= 0; i-- {
		st := &cq.Stmts[i]
		if !scanned[st.Bind] && slices.ContainsFunc(cq.Mat.Dicts, func(d shred.DictInfo) bool { return d.Name == st.Bind }) {
			if src := labelClosed(st.Plan, cq.dicts); src != nil && !bound[src.input] {
				st.src = src
			}
		}
		addScans(st.Plan, scanned)
	}
}

// addScans adds the inputs op scans to set.
func addScans(op plan.Op, set map[string]bool) {
	walkPlan(op, func(op plan.Op) {
		if sc, ok := op.(*plan.Scan); ok {
			set[sc.Input] = true
		}
	})
}

// labelClosed is where the rows of op of one label, its column 0, come from
// when op is partition-local and label-closed (see markDeferrable), or nil.
// It follows the columns carrying the label down to the Scan they come from:
// through σ (unless it nullifies one), ext and π, where a column reference
// passes a label on and a π's MkLabel over column references mints it; the
// probe side of a broadcast ⋈ whose build side is partition-local and does not
// read that Scan; and a Γ or dedup reducing in place with its key holding
// them. The Scan is an input dictionary placed on its label, its column 0, or,
// for a minted label, a flat input whose payload columns hold no label (a
// one-column MkLabel passes a label on as it is). Skew changes nothing here:
// a skew-aware run joins a broadcast ⋈ without splitting its input.
func labelClosed(op plan.Op, dicts []string) *labelSource {
	src, cols := &labelSource{}, []int{0}
	var builds []plan.Op
	beyond := func(w int) bool { return slices.ContainsFunc(cols, func(c int) bool { return c >= w }) }
	// through maps cols through outs, the expressions writing an output.
	through := func(outs []plan.NamedExpr) bool {
		for i, c := range cols {
			switch e := outs[c].Expr.(type) {
			case *plan.Col:
				cols[i] = e.Idx
			case *plan.MkLabel:
				if src.minted {
					return false
				}
				src.minted, src.site, cols = true, e.Site, nil
				for _, a := range e.Args {
					ref, ok := a.(*plan.Col)
					if !ok {
						return false
					}
					cols = append(cols, ref.Idx)
				}
				return true // the label not yet minted is the one column followed
			default:
				return false
			}
		}
		return true
	}
	for {
		switch x := op.(type) {
		case *plan.Select:
			if slices.ContainsFunc(cols, func(c int) bool { return slices.Contains(x.NullifyCols, c) }) {
				return nil
			}
			op = x.In
		case *plan.Extend:
			if beyond(len(x.In.Columns())) {
				return nil
			}
			op = x.In
		case *plan.Project:
			if !through(x.Outs) {
				return nil
			}
			op = x.In
		case *plan.Join:
			if !broadcasts(x) || x.Outs != nil && !through(x.Outs) || beyond(len(x.L.Columns())) {
				return nil
			}
			builds, op = append(builds, x.R), x.L
		case *plan.Nest:
			if !reducesInPlace(x.Local, x.Combine) || beyond(len(x.GroupCols)) {
				return nil
			}
			for i, c := range cols {
				cols[i] = x.GroupCols[c]
			}
			op = x.In
		case *plan.DedupOp:
			if !reducesInPlace(x.Local, x.Combine) {
				return nil
			}
			op = x.In
		case *plan.Scan:
			if src.minted {
				if x.Placed != nil || slices.Contains(dicts, x.Input) ||
					slices.ContainsFunc(cols, func(c int) bool { return nrc.TypesEqual(x.Cols[c].Type, nrc.LabelT) }) {
					return nil
				}
				src.args = cols
			} else if cols[0] != 0 || !slices.ContainsFunc(x.Placed, func(k []int) bool { return slices.Equal(k, labelKey) }) || !slices.Contains(dicts, x.Input) {
				return nil
			}
			if src.input = x.Input; slices.ContainsFunc(builds, func(b plan.Op) bool { return !partitionLocal(b, x.Input) }) {
				return nil
			}
			return src
		default:
			return nil
		}
	}
}

// broadcasts reports whether the join runs as a broadcast whatever its sides
// hold: a cross join, or one the cost model decided to broadcast.
func broadcasts(j *plan.Join) bool {
	return len(j.LCols) == 0 || j.Cost != nil && j.Cost.Method == plan.JoinBroadcast
}

// reducesInPlace reports whether a Γ or dedup reduces each partition's groups
// where they lie, with no exchange (plan.Place set Local).
func reducesInPlace(local []int, combine bool) bool { return local != nil && !combine }

// partitionLocal reports whether the skew-unaware plan op runs without an
// exchange or an addIndex and without reading input: what the build side of
// a label-closed broadcast ⋈ must be to compute the same rows under a limited
// read as under a whole one.
func partitionLocal(op plan.Op, input string) bool {
	ok := true
	walkPlan(op, func(op plan.Op) {
		switch x := op.(type) {
		case *plan.Scan:
			ok = ok && x.Input != input
		case *plan.Select, *plan.Extend, *plan.Project, *plan.Values:
		case *plan.Join:
			ok = ok && broadcasts(x)
		case *plan.Nest:
			ok = ok && reducesInPlace(x.Local, x.Combine)
		case *plan.DedupOp:
			ok = ok && reducesInPlace(x.Local, x.Combine)
		default:
			ok = false
		}
	})
	return ok
}

// NewRunContext builds the dataflow context of one execution under the
// config. Callers attach the worker pool the run draws from (ctx.Pool; nil is
// the process-wide default) before executing.
func NewRunContext(cfg Config) *dataflow.Context {
	ctx := dataflow.NewContext(cfg.Parallelism)
	ctx.MaxPartitionBytes = cfg.MaxPartitionBytes
	ctx.BroadcastLimit = cfg.BroadcastLimit
	return ctx
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
// executor on dctx, binds the input components — rows as they are, placed
// dictionaries as placed datasets, which must span dctx's partitions — and the
// secondary indexes keyed like them (Inputs.Bind; nil indexes are always
// sound — IndexScan then falls back to a full scan plus its span predicate),
// and runs
// the steps in order. A query is the one-step program. All steps share the
// executor, so each step's output — the nested dataset on standard routes, the
// materialized shredded components on shredded routes — is visible to later
// steps without re-conversion (paper Section 4), and only the final step of a
// shredded route restores nested output, by stitching it from its shredded
// output when Result.Output is read, outside the timed region and the
// dataflow metrics; each step runs placed over where the steps before it
// left theirs (placeProgram; Result.Program). Input preparation stays outside
// the timed region — the paper reports runtime after caching all inputs.
// dctx comes from NewRunContext of the config the program compiled under,
// whose broadcast limit plan.Place read too.
//
// Execute shares no mutable state between executions of the same program, so
// any number may run concurrently; panics anywhere in execution degrade to
// Result.Err. Cancellation of ctx is honored between statements (best effort
// — an individual statement runs to completion).
func Execute(ctx context.Context, prog []*Compiled, in Components, idxs map[string]*index.Set, dctx *dataflow.Context, opts ExecOptions) *Result {
	prog = placeProgram(prog)
	last := prog[len(prog)-1]
	res := &Result{Strategy: last.Strategy, Mat: last.Mat, Columns: last.Columns, Analyze: opts.Analysis, FailedStep: -1, prog: prog, enc: last.rowEnc}
	ex := newExecutor(dctx, last.Strategy.SkewAware(), nil)
	ex.Indexes = idxs
	ex.Analysis = opts.Analysis
	for name, r := range in.Rows {
		ex.BindRows(name, r)
	}
	// The final step's statements a run without a memory cap defers, each
	// beside the input rows its labels' rows come from; an input dictionary
	// that only they read is never concatenated or bound whole.
	defers := map[string]*deferred{}
	if dctx.MaxPartitionBytes <= 0 {
		for bind, src := range deferredStmts(prog) {
			d, ok := &deferred{src: src}, false
			if src.minted {
				// Rows another step binds placed lie elsewhere than the
				// contiguous ranges a demand cuts: force those instead.
				d.flat, ok = in.Rows[src.input]
				ok = ok && !placedIn(prog, src.input)
				if d.keys = in.keys[src.input]; d.keys == nil {
					d.keys = &rowKeys{}
				}
			} else {
				d.pd = in.Placed[src.input]
				ok = d.pd != nil
			}
			if ok {
				defers[bind] = d
			}
		}
	}
	scanned := map[string]bool{}
	for i, cq := range prog {
		for _, st := range cq.Stmts {
			if i < len(prog)-1 || defers[st.Bind] == nil {
				addScans(st.Plan, scanned)
			}
		}
	}
	for name, pd := range in.Placed {
		if n := len(pd.Chunks[0].Parts); n != dctx.Parallelism {
			res.Err = fmt.Errorf("input %s is placed over %d partitions, the run over %d", name, n, dctx.Parallelism)
			return res
		}
		if scanned[name] && placedIn(prog, name) {
			ex.Bind(name, dctx.FromPlaced(pd.Whole()))
		}
	}
	for i, cq := range prog {
		var out *dataflow.Dataset
		var final map[string]*deferred
		if i == len(prog)-1 {
			final = defers
		}
		err := res.runStep(i, func() (err error) {
			out, err = cq.execute(ctx, ex, res, opts.Span, final)
			return err
		})
		if err != nil {
			break
		}
		if i < len(prog)-1 {
			ex.Bind(cq.stepName(), out)
			continue
		}
		res.Output = &Output{d: out, mat: cq.Mat, shredded: res.shredded, deferred: res.deferred}
	}
	res.Metrics = dctx.Metrics.Snapshot()
	return res
}

// newExecutor is where every executor is built: a run's, and each of its
// deferred statements' (deferred.run), on dctx over the datasets inputs
// binds.
func newExecutor(dctx *dataflow.Context, skewAware bool, inputs map[string]*dataflow.Dataset) *exec.Executor {
	ex := exec.New(dctx)
	ex.SkewAware = skewAware
	maps.Copy(ex.Inputs, inputs)
	return ex
}

// runStep runs f as step i, converting a panic into an error: it appends the
// wall time to StepElapsed and adds it to Elapsed, and a failure becomes the
// Result's Err, in step i.
func (r *Result) runStep(i int, f func() error) (err error) {
	start := time.Now()
	func() {
		defer recoverTo(&err, "execute")
		err = f()
	}()
	d := time.Since(start)
	r.StepElapsed = append(r.StepElapsed, d)
	r.Elapsed += d
	if err != nil {
		if len(r.prog) > 1 {
			err = fmt.Errorf("step %s: %w", r.prog[i].Name, err)
		}
		r.FailedStep, r.Err = i, err
	}
	return err
}

// execute runs the step's statements in order on the program's executor. An
// assignment is bound for the statements after it and kept in res.shredded;
// the last statement yielding output returns its dataset. A statement defers
// names is left unforced and kept in res.deferred instead: no later statement
// scans it. sp, when non-nil, receives one child span per executed statement.
func (cq *Compiled) execute(ctx context.Context, ex *exec.Executor, res *Result, sp *trace.Span, defers map[string]*deferred) (out *dataflow.Dataset, err error) {
	if cq.Mat != nil {
		res.shredded, res.deferred = map[string]*dataflow.Dataset{}, map[string]*deferred{}
	}
	for _, st := range cq.Stmts {
		if d := defers[st.Bind]; d != nil {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			if err := d.bind(ctx, ex, st, sp); err != nil {
				return out, err
			}
			res.deferred[st.Bind] = d
			continue
		}
		d, err := runStmt(ctx, ex, st, sp)
		if err != nil {
			return out, err
		}
		if st.Bind != "" {
			ex.Bind(st.Bind, d)
			res.shredded[st.Bind] = d
		}
		if cq.yieldsOutput(st) {
			out = d
		}
	}
	return out, nil
}

// runStmt runs one statement on the executor and materializes its dataset. sp,
// when non-nil, receives its span.
func runStmt(ctx context.Context, ex *exec.Executor, st Stmt, sp *trace.Span) (*dataflow.Dataset, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ssp := sp.Child(st.spanName())
	d, err := ex.Run(st.Plan)
	if err == nil {
		err = d.Force().Err() // charge trailing fused narrow work to the timed region
	}
	ssp.End()
	if err != nil && st.Bind != "" {
		err = fmt.Errorf("%s: %w", st.Label, err)
	}
	return d, err
}

// OutputPlan returns the plan of the dataset Execute leaves as Output: the
// standard plan, or the shredded program's top assignment (the top bag its
// nested rows are stitched from).
func (cq *Compiled) OutputPlan() plan.Op { return cq.output().Plan }

// output is the statement OutputPlan returns the plan of.
func (cq *Compiled) output() (out Stmt) {
	for _, st := range cq.Stmts {
		if cq.yieldsOutput(st) {
			out = st
		}
	}
	return out
}

// stepName is the name later steps of a program scan the step's Output by: the
// step name, or for the shredded top bag (an intermediate step's output is
// read shredded) the MatName convention; execute binds the dictionaries per
// assignment.
func (cq *Compiled) stepName() string {
	if cq.Strategy.IsShredded() {
		return shred.MatName(cq.Name, nil)
	}
	return cq.Name
}
