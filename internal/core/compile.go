// Package core implements the compilation framework of the paper (Section 3):
// the unnesting stage that translates NRC programs into algebraic plans, with
// the grouping-set (G) tracking, automatic unique-ID insertion, and NULL
// processing that the paper's Figure 3 illustrates on the running example.
//
// The unnesting algorithm follows Fegaras–Maier as adapted by the paper:
// joins written as nested loops with equality conditions become ⋈, for-loops
// over bag-valued attributes become μ, and at non-root levels the outer
// variants (⟕, μ̄) are generated so outer tuples survive with NULLs that the
// Γ operators later cast to empty bags and zeros.
package core

import (
	"fmt"

	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/plan"
)

// Compiler translates checked NRC expressions into plans over named inputs.
type Compiler struct {
	inputs map[string][]plan.Column
	fresh  int
	// schemas memoizes the columns of every plan node the compiler asks for
	// them, so a schema is built once per node, not once per question.
	schemas plan.Schemas
	// NoPrune disables the column-pruning optimization (for ablation).
	NoPrune bool
}

// NewCompiler builds a compiler for the given input environment. Each input
// must be a bag; its element fields become the scan columns.
func NewCompiler(env nrc.Env) (*Compiler, error) {
	c := &Compiler{inputs: map[string][]plan.Column{}, schemas: plan.Schemas{}}
	for name, t := range env {
		cols, err := ScanColumns(t)
		if err != nil {
			return nil, fmt.Errorf("input %s: %w", name, err)
		}
		c.inputs[name] = cols
	}
	return c, nil
}

// ScanColumns derives the flat scan schema of a bag type.
func ScanColumns(t nrc.Type) ([]plan.Column, error) {
	b, ok := t.(nrc.BagType)
	if !ok {
		return nil, fmt.Errorf("not a bag type: %s", t)
	}
	if tt, ok := b.Elem.(nrc.TupleType); ok {
		cols := make([]plan.Column, len(tt.Fields))
		for i, f := range tt.Fields {
			cols[i] = plan.Column{Name: f.Name, Type: f.Type}
		}
		return cols, nil
	}
	return []plan.Column{{Name: "_value", Type: b.Elem}}, nil
}

// AddInput registers a new named input (used for assignment results).
func (c *Compiler) AddInput(name string, cols []plan.Column) { c.inputs[name] = cols }

// Compile translates a checked expression of bag type into a plan.
func (c *Compiler) Compile(e nrc.Expr) (plan.Op, error) {
	e = nrc.InlineLets(e)
	envTypes := nrc.Env{}
	for name, cols := range c.inputs {
		envTypes[name] = scanType(cols)
	}
	if _, err := nrc.Check(e, envTypes); err != nil {
		return nil, err
	}
	q := &qc{c: c, env: map[string]binding{}}
	op, err := q.compileRoot(e)
	if err != nil {
		return nil, err
	}
	if !c.NoPrune {
		op = plan.Prune(op)
	}
	return op, nil
}

// CompiledStmt is one compiled assignment of a program.
type CompiledStmt struct {
	Name string
	Plan plan.Op
}

// CompileProgram compiles every assignment in order; each result becomes an
// input for later assignments.
func (c *Compiler) CompileProgram(p *nrc.Program) ([]CompiledStmt, error) {
	out := make([]CompiledStmt, 0, len(p.Stmts))
	for _, st := range p.Stmts {
		op, err := c.Compile(st.Expr)
		if err != nil {
			return nil, fmt.Errorf("assignment %s: %w", st.Name, err)
		}
		c.AddInput(st.Name, op.Columns())
		out = append(out, CompiledStmt{Name: st.Name, Plan: op})
	}
	return out, nil
}

func scanType(cols []plan.Column) nrc.Type {
	if len(cols) == 1 && cols[0].Name == "_value" {
		return nrc.BagType{Elem: cols[0].Type}
	}
	fs := make([]nrc.Field, len(cols))
	for i, c := range cols {
		fs[i] = nrc.Field{Name: c.Name, Type: c.Type}
	}
	return nrc.BagType{Elem: nrc.TupleType{Fields: fs}}
}

// binding maps an NRC variable to plan columns.
type binding struct {
	isTuple bool
	cols    map[string]int // field → column (tuple-typed variables)
	col     int            // column (scalar/label/bag-typed variables)
	typ     nrc.Type
}

// qc is the per-query compile state: the current plan, variable bindings, the
// grouping prefix G, and the nesting level.
type qc struct {
	c        *Compiler
	cur      plan.Op
	env      map[string]binding
	g        []int // grouping prefix G (column positions in cur)
	carry    []int // bag-typed columns carried through nests
	presence []int // first columns of this level's generators (phantom detection)
	level    int
	// consumed marks bag columns an unnest has already flattened: μ
	// tombstones the unnested attribute in place (the paper's projection of
	// the flattened column), so a second iteration or copy of the same bag
	// would silently read NULL. Such queries are refused with a descriptive
	// error instead (found by the differential oracle harness).
	consumed map[int]bool
}

func (q *qc) clone() *qc {
	env := make(map[string]binding, len(q.env))
	for k, v := range q.env {
		env[k] = v
	}
	consumed := make(map[int]bool, len(q.consumed))
	for k, v := range q.consumed {
		consumed[k] = v
	}
	return &qc{
		c: q.c, cur: q.cur, env: env,
		g:        append([]int{}, q.g...),
		carry:    append([]int{}, q.carry...),
		presence: append([]int{}, q.presence...),
		level:    q.level,
		consumed: consumed,
	}
}

// markConsumed records that the bag at column col has been flattened in
// place and must not be read again.
func (q *qc) markConsumed(col int) {
	if q.consumed == nil {
		q.consumed = map[int]bool{}
	}
	q.consumed[col] = true
}

func (q *qc) cols() []plan.Column { return q.c.schemas.Of(q.cur) }

func (q *qc) width() int {
	if q.cur == nil {
		return 0
	}
	return len(q.cols())
}

// step is one element of a flattened comprehension.
type step interface{ isStep() }

type genStep struct {
	v   string
	src nrc.Expr
}

type filterStep struct{ cond nrc.Expr }

type matchStep struct{ m *nrc.MatchLabel }

func (genStep) isStep()    {}
func (filterStep) isStep() {}
func (matchStep) isStep()  {}

// collect flattens nested for/if/match chains into steps and a head.
func collect(e nrc.Expr) (steps []step, head nrc.Expr, err error) {
	for {
		switch x := e.(type) {
		case *nrc.For:
			steps = append(steps, genStep{v: x.Var, src: x.Source})
			e = x.Body
		case *nrc.If:
			if x.Else != nil {
				return nil, nil, fmt.Errorf("if-then-else inside comprehensions is not supported by the unnesting stage")
			}
			steps = append(steps, filterStep{cond: x.Cond})
			e = x.Then
		case *nrc.MatchLabel:
			steps = append(steps, matchStep{m: x})
			e = x.Body
		case *nrc.Sing:
			return steps, x.Elem, nil
		default:
			// Bag-valued tail that is not a singleton: for v in s union E.
			return steps, nil, nil
		}
	}
}

// compileRoot compiles a bag expression at the root level (level 0).
func (q *qc) compileRoot(e nrc.Expr) (plan.Op, error) {
	switch x := e.(type) {
	case *nrc.Var:
		cols, ok := q.c.inputs[x.Name]
		if !ok {
			return nil, fmt.Errorf("unknown input %q", x.Name)
		}
		return &plan.Scan{Input: x.Name, Cols: cols}, nil

	case *nrc.Union:
		l, err := q.clone().compileRoot(x.L)
		if err != nil {
			return nil, err
		}
		r, err := q.clone().compileRoot(x.R)
		if err != nil {
			return nil, err
		}
		return &plan.UnionAll{L: l, R: r}, nil

	case *nrc.Empty:
		cols, err := ScanColumns(nrc.BagType{Elem: x.ElemType})
		if err != nil {
			return nil, err
		}
		return &plan.Values{Cols: cols}, nil

	case *nrc.Dedup:
		in, err := q.clone().compileRoot(x.E)
		if err != nil {
			return nil, err
		}
		return &plan.DedupOp{In: in}, nil

	case *nrc.SumBy:
		return q.compileRootAgg(x.E, x.Keys, x.Values, plan.AggSum, "")

	case *nrc.GroupBy:
		return q.compileRootAgg(x.E, x.Keys, nil, plan.AggBag, x.GroupAs)

	case *nrc.For, *nrc.If, *nrc.Sing, *nrc.MatchLabel, *nrc.MatLookup:
		return q.compileComprehension(e)
	}
	return nil, fmt.Errorf("core: unsupported root expression %T", e)
}

// compileRootAgg compiles a top-level sumBy/groupBy: compile the input as a
// flat pipeline, then apply Γ in explicit-root mode (pure-phantom groups are
// dropped: NRC aggregates over empty bags are empty).
func (q *qc) compileRootAgg(input nrc.Expr, keys, values []string, agg plan.AggKind, outName string) (plan.Op, error) {
	in, err := q.clone().compileRoot(input)
	if err != nil {
		return nil, err
	}
	cols := q.c.schemas.Of(in)
	keyIdx, err := colsByName(cols, keys)
	if err != nil {
		return nil, err
	}
	var valIdx []int
	if agg == plan.AggSum {
		valIdx, err = colsByName(cols, values)
		if err != nil {
			return nil, err
		}
	} else {
		for i := range cols {
			if !intsContain(keyIdx, i) {
				valIdx = append(valIdx, i)
			}
		}
	}
	return &plan.Nest{
		In: in, GroupCols: keyIdx, GDepth: 0, ValueCols: valIdx,
		Agg: agg, Mode: plan.ExplicitRoot, OutName: outName,
	}, nil
}

// compileComprehension compiles a for/if/sing chain. At the root the result
// is a full plan ending in a projection; the nested variant is frame-based.
func (q *qc) compileComprehension(e nrc.Expr) (plan.Op, error) {
	steps, head, err := collect(e)
	if err != nil {
		return nil, err
	}
	if head == nil {
		return nil, fmt.Errorf("core: comprehension tail %T is not a singleton; rewrite as nested for", e)
	}
	if err := q.processSteps(steps); err != nil {
		return nil, err
	}
	return q.compileHeadRoot(head)
}

// processSteps adds generators, filters and label matches to the pipeline.
// All filters are collected up front (in "for … for … if cond" chains the
// condition appears after the generators it links); each dataset generator
// consumes the equality filters joining it to prior bindings as join keys —
// this is the nested-loop-join detection of the unnesting algorithm. The
// remaining filters become selections (outer-preserving nullifying
// selections below the root).
func (q *qc) processSteps(steps []step) error {
	entry := q.width()
	var pending []nrc.Expr
	for _, s := range steps {
		if f, ok := s.(filterStep); ok {
			pending = append(pending, splitConj(f.cond)...)
		}
	}
	for _, s := range steps {
		switch st := s.(type) {
		case genStep:
			var err error
			pending, err = q.addGenerator(st.v, st.src, pending)
			if err != nil {
				return err
			}
		case matchStep:
			if err := q.addMatch(st.m); err != nil {
				return err
			}
		}
	}
	return q.applyFilters(pending, entry)
}

// applyFilters emits the residual selections. Below the root the columns
// introduced at this level are nullified rather than dropping rows, so outer
// tuples survive (their contributions become phantom and Γ casts them away).
func (q *qc) applyFilters(filters []nrc.Expr, entry int) error {
	if len(filters) == 0 {
		return nil
	}
	pred, err := q.scalar(filters[0])
	if err != nil {
		return err
	}
	for _, f := range filters[1:] {
		p2, err := q.scalar(f)
		if err != nil {
			return err
		}
		pred = &plan.BoolE{And: true, L: pred, R: p2}
	}
	var nullify []int
	if q.level > 0 {
		for i := entry; i < q.width(); i++ {
			nullify = append(nullify, i)
		}
		if nullify == nil {
			nullify = []int{} // non-nil: keep rows, nothing to nullify
		}
	}
	q.cur = &plan.Select{In: q.cur, Pred: pred, NullifyCols: nullify}
	return nil
}

// addGenerator extends the pipeline with one generator "for v in src",
// consuming join conditions from pending filters. It returns the filters
// still pending.
func (q *qc) addGenerator(v string, src nrc.Expr, pending []nrc.Expr) ([]nrc.Expr, error) {
	elemT := src.Type().(nrc.BagType).Elem
	outer := q.level > 0

	// Correlated generator over a bag-valued path: unnest.
	if col, ok := q.resolveBagCol(src); ok {
		if q.consumed[col] {
			return nil, consumedBagErr(src)
		}
		q.markConsumed(col)
		q.cur = &plan.Unnest{In: q.cur, BagCol: col, Prefix: v, Outer: outer}
		base := q.width() - len(elemFieldCount(elemT))
		q.bindElem(v, elemT, base)
		q.markPresence(base)
		return pending, nil
	}

	// Lookup in a materialized dictionary: join on the label column.
	if ml, ok := src.(*nrc.MatLookup); ok {
		return q.addDictLookup(v, ml, pending, outer)
	}

	// Independent dataset (input, assignment, or independent subquery).
	sub, err := q.subPlan(src)
	if err != nil {
		return nil, err
	}
	if q.cur == nil {
		q.cur = sub
		q.bindElem(v, elemT, 0)
		return pending, nil
	}
	return q.joinWith(v, sub, elemT, pending, outer)
}

// subPlan compiles an independent bag source on a fresh root context.
func (q *qc) subPlan(src nrc.Expr) (plan.Op, error) {
	for fv := range nrc.FreeVars(src) {
		if _, bound := q.env[fv]; bound {
			return nil, fmt.Errorf("core: correlated subquery over %q is not supported; only bag-path navigation and MatLookup may be correlated", fv)
		}
	}
	sq := &qc{c: q.c, env: map[string]binding{}}
	return sq.compileRoot(src)
}

// joinWith joins the current pipeline with a new dataset generator, pulling
// equality conditions that link prior bindings with the new variable.
func (q *qc) joinWith(v string, right plan.Op, elemT nrc.Type, pending []nrc.Expr, outer bool) ([]nrc.Expr, error) {
	rightWidth := len(q.c.schemas.Of(right))

	// Temporary right-side context to compile right-key expressions.
	rq := &qc{c: q.c, cur: right, env: map[string]binding{}}
	rq.bindElem(v, elemT, 0)

	var lkeys, rkeys []plan.Expr
	var remaining []nrc.Expr
	for _, f := range pending {
		l, r, ok := q.splitJoinCond(f, v)
		if ok {
			le, err := q.scalar(l)
			if err != nil {
				return nil, err
			}
			re, err := rq.scalar(r)
			if err != nil {
				return nil, err
			}
			lkeys = append(lkeys, le)
			rkeys = append(rkeys, re)
			continue
		}
		remaining = append(remaining, f)
	}

	lcols, err := q.ensureCols(lkeys)
	if err != nil {
		return nil, err
	}
	rcols, err := rq.ensureCols(rkeys)
	if err != nil {
		return nil, err
	}
	right = rq.cur
	rightWidth = len(q.c.schemas.Of(right))

	leftWidth := q.width()
	q.cur = &plan.Join{L: q.cur, R: right, LCols: lcols, RCols: rcols, Outer: outer}
	q.bindElem(v, elemT, leftWidth)
	q.markPresence(leftWidth)
	_ = rightWidth
	return remaining, nil
}

// markPresence records the first column of a generator added below the root;
// the enclosing Γ uses it to detect rows where this generator missed.
func (q *qc) markPresence(col int) {
	if q.level > 0 {
		q.presence = append(q.presence, col)
	}
}

// addDictLookup joins the pipeline with a materialized dictionary on its
// label column (paper Section 4: "a MatLookup is translated directly into an
// outer join").
func (q *qc) addDictLookup(v string, ml *nrc.MatLookup, pending []nrc.Expr, outer bool) ([]nrc.Expr, error) {
	dictVar, ok := ml.Dict.(*nrc.Var)
	if !ok {
		return nil, fmt.Errorf("core: MatLookup dictionary must be a named input, got %T", ml.Dict)
	}
	cols, ok := q.c.inputs[dictVar.Name]
	if !ok {
		return nil, fmt.Errorf("unknown dictionary %q", dictVar.Name)
	}
	lkey, err := q.scalar(ml.Label)
	if err != nil {
		return nil, err
	}
	lcols, err := q.ensureCols([]plan.Expr{lkey})
	if err != nil {
		return nil, err
	}
	right := plan.Op(&plan.Scan{Input: dictVar.Name, Cols: cols})
	leftWidth := q.width()
	q.cur = &plan.Join{L: q.cur, R: right, LCols: lcols, RCols: []int{0}, Outer: outer}
	// v binds to the element fields (everything after the label column).
	elemT := ml.Type().(nrc.BagType).Elem
	q.bindElem(v, elemT, leftWidth+1)
	q.markPresence(leftWidth)
	return pending, nil
}

// addMatch compiles a label-match construct: it extends the plan with the
// destructured payload columns and binds the parameters.
func (q *qc) addMatch(m *nrc.MatchLabel) error {
	lbl, err := q.scalar(m.Label)
	if err != nil {
		return err
	}
	exprs := make([]plan.NamedExpr, len(m.Params))
	for i, p := range m.Params {
		exprs[i] = plan.NamedExpr{
			Name: p,
			Expr: &plan.LabelField{E: lbl, Site: m.Site, Idx: i, NParams: len(m.Params), Typ: m.ParamTypes[i]},
		}
	}
	base := q.width()
	q.cur = &plan.Extend{In: q.cur, Exprs: exprs}
	for i, p := range m.Params {
		q.env[p] = binding{col: base + i, typ: m.ParamTypes[i]}
	}
	return nil
}

// splitConj flattens a conjunction into its conjuncts so each equality can be
// consumed independently as a join key.
func splitConj(e nrc.Expr) []nrc.Expr {
	if b, ok := e.(*nrc.BoolBin); ok && b.And {
		return append(splitConj(b.L), splitConj(b.R)...)
	}
	return []nrc.Expr{e}
}

// splitJoinCond recognizes an equality whose sides separate cleanly between
// previously-bound variables and the new variable v. Returns (priorSide,
// newSide, ok).
func (q *qc) splitJoinCond(f nrc.Expr, v string) (nrc.Expr, nrc.Expr, bool) {
	cmp, ok := f.(*nrc.Cmp)
	if !ok || cmp.Op != nrc.Eq {
		return nil, nil, false
	}
	lv := nrc.FreeVars(cmp.L)
	rv := nrc.FreeVars(cmp.R)
	priorOnly := func(fv map[string]bool) bool {
		for name := range fv {
			if name == v {
				return false
			}
			if _, bound := q.env[name]; !bound {
				return false
			}
		}
		return true
	}
	newOnly := func(fv map[string]bool) bool {
		for name := range fv {
			if name != v {
				return false
			}
		}
		return len(fv) > 0
	}
	if priorOnly(lv) && newOnly(rv) {
		return cmp.L, cmp.R, true
	}
	if priorOnly(rv) && newOnly(lv) {
		return cmp.R, cmp.L, true
	}
	return nil, nil, false
}

// bindElem binds variable v of element type elemT to columns starting at
// base.
func (q *qc) bindElem(v string, elemT nrc.Type, base int) {
	if tt, ok := elemT.(nrc.TupleType); ok {
		cols := make(map[string]int, len(tt.Fields))
		for i, f := range tt.Fields {
			cols[f.Name] = base + i
		}
		q.env[v] = binding{isTuple: true, cols: cols, typ: elemT}
		return
	}
	q.env[v] = binding{col: base, typ: elemT}
}

func elemFieldCount(elemT nrc.Type) []int {
	if tt, ok := elemT.(nrc.TupleType); ok {
		return make([]int, len(tt.Fields))
	}
	return make([]int, 1)
}

// resolveBagCol resolves src to a bag-typed column of the current plan:
// either x.a for a tuple-bound x, or a variable directly bound to a bag
// column.
func (q *qc) resolveBagCol(src nrc.Expr) (int, bool) {
	switch x := src.(type) {
	case *nrc.Proj:
		base, ok := x.Tuple.(*nrc.Var)
		if !ok {
			return 0, false
		}
		b, bound := q.env[base.Name]
		if !bound || !b.isTuple {
			return 0, false
		}
		col, ok := b.cols[x.Field]
		if !ok {
			return 0, false
		}
		if _, isBag := q.cols()[col].Type.(nrc.BagType); !isBag {
			return 0, false
		}
		return col, true
	case *nrc.Var:
		b, bound := q.env[x.Name]
		if !bound || b.isTuple {
			return 0, false
		}
		if _, isBag := b.typ.(nrc.BagType); !isBag {
			return 0, false
		}
		return b.col, true
	}
	return 0, false
}

// ensureCols materializes key expressions as columns, extending the plan for
// non-column expressions.
func (q *qc) ensureCols(exprs []plan.Expr) ([]int, error) {
	out := make([]int, len(exprs))
	var ext []plan.NamedExpr
	base := q.width()
	for i, e := range exprs {
		if c, ok := e.(*plan.Col); ok {
			out[i] = c.Idx
			continue
		}
		out[i] = base + len(ext)
		ext = append(ext, plan.NamedExpr{Name: q.freshName("k"), Expr: e})
	}
	if len(ext) > 0 {
		q.cur = &plan.Extend{In: q.cur, Exprs: ext}
	}
	return out, nil
}

func (q *qc) freshName(prefix string) string {
	q.c.fresh++
	return fmt.Sprintf("_%s%d", prefix, q.c.fresh)
}

func colsByName(cols []plan.Column, names []string) ([]int, error) {
	out := make([]int, len(names))
	for i, n := range names {
		idx := -1
		for j, c := range cols {
			if c.Name == n {
				idx = j
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("column %q not found", n)
		}
		out[i] = idx
	}
	return out, nil
}

// consumedBagErr explains the refusal to read a bag attribute a second time.
// The unnest of an enclosing for flattens the bag's column in place (paper
// Section 3: the unnested attribute is projected away), so a later iteration
// or copy would silently see NULL — a wrong empty bag — instead of the data.
func consumedBagErr(src nrc.Expr) error {
	return fmt.Errorf("core: %s is already flattened by an enclosing for; iterating or copying a bag attribute a second time is not supported by the unnesting stage — bind the needed elements in the first iteration instead", nrc.Print(src))
}

func intsContain(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
