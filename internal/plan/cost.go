// Cost-based plan annotation: the statistics-driven layer on top of the
// rule-based optimizer. Annotate walks an optimized plan bottom-up, propagating
// cardinality and byte estimates from per-input table statistics
// (internal/stats collects them; runner.CompileStep is given them),
// estimating predicate selectivity from NDV and min/max, and stamping every
// equi-join with a Costs annotation that fixes the join method at compile time:
// broadcast when the build side's estimated bytes fit under the broadcast
// limit, shuffle otherwise — and, for inner joins whose left side is the only
// broadcastable one, the inputs are swapped (with a column-restoring
// projection) so the small side becomes the build side. Explain renders the
// annotations as "est_rows=…/join=broadcast|shuffle". See docs/COSTMODEL.md.
package plan

import (
	"math"

	"github.com/trance-go/trance/internal/index"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/value"
)

// ColEstimate summarizes one scalar column for the cost model. The zero value
// means "unknown".
type ColEstimate struct {
	// NDV is the (estimated) number of distinct values; 0 = unknown.
	NDV int64
	// Min and Max bound the column's non-NULL values; nil = unknown.
	Min, Max value.Value
	// HeavyFraction is the fraction of rows carried by heavy keys (keys whose
	// per-partition sample frequency exceeds the skew detector's threshold).
	HeavyFraction float64
	// Indexed reports a secondary index on the column of the bound input,
	// enabling Select→IndexScan conversion.
	Indexed bool
}

// TableEstimate summarizes one input for the cost model.
type TableEstimate struct {
	// Generation stamps the catalog registration the statistics were collected
	// from, so re-registered datasets never reuse stale cost decisions (it is
	// folded into the compilation fingerprint). 0 outside a catalog.
	Generation int64
	// Rows and Bytes size the whole input.
	Rows  int64
	Bytes int64
	// Cols maps column names to their estimates.
	Cols map[string]ColEstimate
}

// JoinMethod is the physical join choice fixed by the cost model.
type JoinMethod int

// Join methods.
const (
	JoinShuffle JoinMethod = iota
	JoinBroadcast
)

func (m JoinMethod) String() string {
	if m == JoinBroadcast {
		return "broadcast"
	}
	return "shuffle"
}

// Costs is the cost-model annotation on a Join node.
type Costs struct {
	// EstRows is the estimated output cardinality.
	EstRows int64
	// BuildBytes is the estimated size of the build (right) side.
	BuildBytes int64
	// Method is the physical join choice the executor honors.
	Method JoinMethod
	// Swapped records that the cost model exchanged the join inputs so the
	// smaller side is broadcast (inner equi-joins only; a projection above
	// restores the original column order).
	Swapped bool
}

func (c *Costs) describe() string {
	s := " [est_rows=" + itoa(c.EstRows) + " join=" + c.Method.String()
	if c.Swapped {
		s += " swapped"
	}
	return s + "]"
}

func itoa(n int64) string {
	if n < 0 {
		return "?"
	}
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	return string(buf[i:])
}

// nodeEst carries the bottom-up estimate of one plan node. rows < 0 means the
// node's cardinality is unknown (some scan had no statistics) — joins above it
// get no annotation and fall back to the executor's runtime heuristic.
type nodeEst struct {
	rows  float64
	bytes float64
	cols  []ColEstimate // by output position; zero value = unknown
}

func unknownEst(n int) nodeEst { return nodeEst{rows: -1, bytes: -1, cols: make([]ColEstimate, n)} }

func (e nodeEst) known() bool { return e.rows >= 0 }

// avgRowBytes estimates one row's footprint, defaulting when unknown.
func (e nodeEst) avgRowBytes() float64 {
	if e.rows > 0 && e.bytes > 0 {
		return e.bytes / e.rows
	}
	return 64
}

// defaultFanout is the assumed per-row bag size of an Unnest (and its inverse
// the assumed grouping factor of a Nest) when statistics say nothing about
// inner-collection sizes.
const defaultFanout = 4

// Annotate rewrites the plan with cost annotations: every Join whose both
// sides have known estimates gets a Costs annotation choosing broadcast vs
// shuffle under broadcastLimit (and possibly swapped inputs), and a pushed-down
// selection over a column the statistics flag as indexed becomes an IndexScan.
// It also returns those index decisions. The input plan is not mutated; shared
// subtrees are rebuilt. tables maps Scan input names to their statistics —
// inputs without statistics propagate "unknown" upward, and with none at all
// the plan comes back as it is.
func Annotate(op Op, tables map[string]TableEstimate, broadcastLimit int64) (Op, IndexStats) {
	if len(tables) == 0 {
		return op, IndexStats{}
	}
	a := &annotator{tables: tables, limit: broadcastLimit}
	out, _ := a.walk(op)
	return out, a.idx
}

type annotator struct {
	tables map[string]TableEstimate
	limit  int64
	idx    IndexStats
}

func (a *annotator) walk(op Op) (Op, nodeEst) {
	switch x := op.(type) {
	case *Scan:
		te, ok := a.tables[x.Input]
		if !ok {
			return x, unknownEst(len(x.Cols))
		}
		est := nodeEst{rows: float64(te.Rows), bytes: float64(te.Bytes), cols: make([]ColEstimate, len(x.Cols))}
		for i, c := range x.Cols {
			est.cols[i] = te.Cols[c.Name]
		}
		return x, est
	case *Values:
		return x, nodeEst{rows: float64(len(x.Rows)), bytes: float64(value.SizeRows(x.Rows)), cols: make([]ColEstimate, len(x.Cols))}
	case *Join:
		return a.join(x)
	}
	ch := op.Children()
	if len(ch) == 0 {
		// Unknown operator: leave untouched, estimate unknown.
		return op, unknownEst(len(op.Columns()))
	}
	kids, ests := make([]Op, len(ch)), make([]nodeEst, len(ch))
	for i, c := range ch {
		kids[i], ests[i] = a.walk(c)
	}
	if x, ok := op.(*Select); ok && x.NullifyCols == nil && ests[0].known() {
		if scan, isScan := kids[0].(*Scan); isScan {
			if op, est, ok := a.tryIndexScan(scan, x.Pred, ests[0]); ok {
				return op, est
			}
		}
	}
	out := withChildren(op, kids...)
	return out, estimate(out, ests)
}

// estimate derives an operator's estimate from those of its inputs.
func estimate(op Op, ins []nodeEst) nodeEst {
	e := ins[0]
	switch op.(type) {
	case *Select, *Unnest, *Nest, *UnionAll:
		for _, in := range ins {
			if !in.known() {
				return unknownEst(len(op.Columns()))
			}
		}
	}
	switch x := op.(type) {
	case *Select:
		if x.NullifyCols != nil {
			// Outer-preserving selection keeps every row.
			return e
		}
		sel := Selectivity(x.Pred, e.cols)
		return nodeEst{rows: e.rows * sel, bytes: e.bytes * sel, cols: e.cols}
	case *Extend:
		cols := append(append([]ColEstimate{}, e.cols...), make([]ColEstimate, len(x.Exprs))...)
		return nodeEst{rows: e.rows, bytes: e.bytes, cols: cols}
	case *Project:
		cols := make([]ColEstimate, len(x.Outs))
		if e.known() {
			for i, ne := range x.Outs {
				if c, ok := ne.Expr.(*Col); ok && c.Idx < len(e.cols) {
					cols[i] = e.cols[c.Idx]
				}
			}
		}
		return nodeEst{rows: e.rows, bytes: e.bytes, cols: cols}
	case *AddIndex:
		return nodeEst{rows: e.rows, bytes: e.bytes, cols: append(append([]ColEstimate{}, e.cols...), ColEstimate{})}
	case *Unnest:
		cols := make([]ColEstimate, len(x.Columns()))
		for i := range cols {
			// Element fields are unknown, and so is the tombstoned bag column.
			if c := x.Full(i); c < len(e.cols) && c != x.BagCol {
				cols[i] = e.cols[c]
			}
		}
		return nodeEst{rows: e.rows * defaultFanout, bytes: e.bytes * defaultFanout, cols: cols}
	case *Nest:
		cols := make([]ColEstimate, len(x.Columns()))
		for i, c := range x.passed() {
			if c < len(e.cols) {
				cols[i] = e.cols[c]
			}
		}
		return nodeEst{rows: math.Max(1, e.rows/defaultFanout), bytes: e.bytes, cols: cols}
	case *UnionAll:
		return nodeEst{rows: e.rows + ins[1].rows, bytes: e.bytes + ins[1].bytes, cols: e.cols}
	}
	return e // dedup and bagToDict
}

// join estimates an equi-join's output and fixes the physical method. With
// both sides known: broadcast when the right side fits under the limit; for
// inner joins where only the LEFT side fits, the inputs are swapped (and a
// projection restores column order) so the small side is built and broadcast.
func (a *annotator) join(x *Join) (Op, nodeEst) {
	l, le := a.walk(x.L)
	r, re := a.walk(x.R)
	out := cloneWith(x, func(j *Join) { j.L, j.R, j.Cost = l, r, nil })
	outCols := append(append([]ColEstimate{}, le.cols...), re.cols...)
	if !le.known() || !re.known() {
		return out, nodeEst{rows: -1, bytes: -1, cols: outCols}
	}

	var rows float64
	if len(x.LCols) == 0 {
		rows = le.rows * re.rows
	} else {
		denom := float64(0)
		for i := range x.LCols {
			var dl, dr int64
			if x.LCols[i] < len(le.cols) {
				dl = le.cols[x.LCols[i]].NDV
			}
			if x.RCols[i] < len(re.cols) {
				dr = re.cols[x.RCols[i]].NDV
			}
			denom = math.Max(denom, math.Max(float64(dl), float64(dr)))
		}
		if denom == 0 {
			denom = math.Max(1, math.Max(le.rows, re.rows))
		}
		rows = le.rows * re.rows / denom
	}
	if x.Outer {
		rows = math.Max(rows, le.rows)
	}
	est := nodeEst{rows: rows, bytes: rows * (le.avgRowBytes() + re.avgRowBytes()), cols: outCols}

	if len(x.LCols) == 0 {
		// Cross joins always broadcast the right side (executor invariant);
		// no annotation needed.
		return out, est
	}
	cost := &Costs{EstRows: int64(rows), BuildBytes: int64(re.bytes), Method: JoinShuffle}
	if a.limit > 0 && re.bytes <= float64(a.limit) {
		cost.Method = JoinBroadcast
	} else if a.limit > 0 && !x.Outer && le.bytes <= float64(a.limit) && x.Outs == nil && x.Placed == [2]bool{} && !x.KeepSplit {
		// Only the left side fits: swap so it becomes the broadcast build
		// side. Inner equi-joins are symmetric up to column order, which the
		// projection restores; outer joins are not swappable, and neither is
		// a join whose sides Fuse (Outs) or Place already decided for.
		cost.Method = JoinBroadcast
		cost.Swapped = true
		cost.BuildBytes = int64(le.bytes)
		swapped := &Join{L: r, R: l, LCols: x.RCols, RCols: x.LCols, Cost: cost}
		lw, rw := len(l.Columns()), len(r.Columns())
		sc := swapped.Columns()
		outs := make([]NamedExpr, 0, lw+rw)
		for i := 0; i < lw; i++ {
			outs = append(outs, NamedExpr{Name: sc[rw+i].Name, Expr: &Col{Idx: rw + i, Name: sc[rw+i].Name, Typ: sc[rw+i].Type}})
		}
		for i := 0; i < rw; i++ {
			outs = append(outs, NamedExpr{Name: sc[i].Name, Expr: &Col{Idx: i, Name: sc[i].Name, Typ: sc[i].Type}})
		}
		return &Project{In: swapped, Outs: outs}, est
	}
	out.Cost = cost
	return out, est
}

// Index-scan conversion thresholds: a Select over a Scan becomes an IndexScan
// only when the consumed conjuncts are estimated to keep at most this fraction
// of the input — above it, the gather (random access + output materialization)
// is not expected to beat the fused full scan. The two shapes cross over at
// very different points, so they gate separately:
//
//   - Equality probes binary-search one key and gather its rows, already in
//     row order; even a half-selective point predicate beats rescanning
//     everything.
//   - Range spans gather the rows of many keys and sort them; the ablation
//     benchmark (BenchmarkIndexScanAblation) measured the gathered range scan
//     ~1.8× SLOWER than the fused full scan at ~10% selectivity, putting the
//     break-even near 1/18 of the input. Gate with a little headroom below
//     that crossover.
const (
	indexScanMaxEqSelectivity    = 0.5
	indexScanMaxRangeSelectivity = 0.055
)

// tryIndexScan converts a pushed-down Select directly above a Scan into an
// IndexScan when some `col op const` conjuncts restrict an indexed column
// selectively enough. Consumed conjuncts become Spans (their conjunction is
// kept as the node's runtime Fallback); the remaining conjuncts stay in a σ
// above the new node.
func (a *annotator) tryIndexScan(scan *Scan, pred Expr, e nodeEst) (Op, nodeEst, bool) {
	te, ok := a.tables[scan.Input]
	if !ok {
		return nil, nodeEst{}, false
	}
	type cand struct {
		conj  Expr
		op    nrc.CmpOp
		konst *ConstE
	}
	conjs := splitConjExpr(pred)
	byCol := map[int][]cand{}
	colName := map[int]string{}
	for _, c := range conjs {
		cmp, isCmp := c.(*CmpE)
		if !isCmp {
			continue
		}
		col, konst, op := normalizeCmp(cmp)
		if col == nil || konst.Val == nil {
			// NULL constants compare to false everywhere; leave the conjunct
			// residual (it will drop every row by itself).
			continue
		}
		if col.Idx < 0 || col.Idx >= len(scan.Cols) {
			continue
		}
		// The predicate's Col carries a display name scoped to the query
		// (e.g. "r.id"); the scan's own column at the same position carries
		// the statistics key.
		switch op {
		case nrc.Eq, nrc.Lt, nrc.Le, nrc.Gt, nrc.Ge:
		default:
			continue
		}
		if !te.Cols[scan.Cols[col.Idx].Name].Indexed {
			continue
		}
		byCol[col.Idx] = append(byCol[col.Idx], cand{c, op, konst})
		colName[col.Idx] = scan.Cols[col.Idx].Name
	}
	if len(byCol) == 0 {
		return nil, nodeEst{}, false
	}

	// Pick the column whose candidate conjuncts are most selective
	// (tie-broken by position for determinism).
	best, bestSel := -1, 2.0
	for idx, cs := range byCol {
		sel := 1.0
		for _, c := range cs {
			sel *= Selectivity(c.conj, e.cols)
		}
		if sel < bestSel || (sel == bestSel && idx < best) {
			best, bestSel = idx, sel
		}
	}

	// Intersect the chosen column's conjuncts into one span.
	var span index.Span
	tightenLo := func(v value.Value, inc bool) {
		if span.Lo == nil {
			span.Lo, span.LoInc = v, inc
			return
		}
		if c := value.Compare(v, span.Lo); c > 0 {
			span.Lo, span.LoInc = v, inc
		} else if c == 0 {
			span.LoInc = span.LoInc && inc
		}
	}
	tightenHi := func(v value.Value, inc bool) {
		if span.Hi == nil {
			span.Hi, span.HiInc = v, inc
			return
		}
		if c := value.Compare(v, span.Hi); c < 0 {
			span.Hi, span.HiInc = v, inc
		} else if c == 0 {
			span.HiInc = span.HiInc && inc
		}
	}
	consumed := make([]Expr, 0, len(byCol[best]))
	ranged := false
	for _, c := range byCol[best] {
		consumed = append(consumed, c.conj)
		switch c.op {
		case nrc.Eq:
			tightenLo(c.konst.Val, true)
			tightenHi(c.konst.Val, true)
		case nrc.Lt:
			tightenHi(c.konst.Val, false)
			ranged = true
		case nrc.Le:
			tightenHi(c.konst.Val, true)
			ranged = true
		case nrc.Gt:
			tightenLo(c.konst.Val, false)
			ranged = true
		case nrc.Ge:
			tightenLo(c.konst.Val, true)
			ranged = true
		}
	}
	empty := span.Empty()
	// A span assembled from any range conjunct walks many keys, so it
	// gates at the measured range crossover even if equality conjuncts also
	// tightened it; pure point probes keep the looser equality gate.
	gate := indexScanMaxEqSelectivity
	if ranged && !span.IsPoint() {
		gate = indexScanMaxRangeSelectivity
	}
	if !empty && bestSel > gate {
		return nil, nodeEst{}, false
	}
	if empty {
		bestSel = 0
	}

	var spans []index.Span
	if !empty {
		spans = []index.Span{span}
	}
	node := &IndexScan{
		Input: scan.Input, Cols: scan.Cols,
		Col: colName[best], ColIdx: best,
		Spans:    spans,
		Fallback: conjoin(consumed),
		EstRows:  int64(e.rows * bestSel),
	}
	a.idx.Planned++
	index.RecordPlanned()

	est := nodeEst{rows: e.rows * bestSel, bytes: e.bytes * bestSel, cols: e.cols}
	var residual []Expr
	for _, c := range conjs {
		used := false
		for _, u := range consumed {
			if c == u {
				used = true
				break
			}
		}
		if !used {
			residual = append(residual, c)
		}
	}
	if len(residual) == 0 {
		return node, est, true
	}
	rp := conjoin(residual)
	rsel := Selectivity(rp, e.cols)
	return &Select{In: node, Pred: rp},
		nodeEst{rows: est.rows * rsel, bytes: est.bytes * rsel, cols: e.cols}, true
}

// conjoin folds conjuncts back into one predicate.
func conjoin(preds []Expr) Expr {
	pred := preds[0]
	for _, p := range preds[1:] {
		pred = &BoolE{And: true, L: pred, R: p}
	}
	return pred
}

// Selectivity estimates the fraction of rows a predicate keeps, given
// per-column estimates (by position). Equality against a constant selects
// 1/NDV; range comparisons interpolate against min/max when the column and
// constant are numeric; conjunctions multiply, disjunctions add (capped), and
// anything unrecognized defaults to 1/3.
func Selectivity(pred Expr, cols []ColEstimate) float64 {
	const dflt = 1.0 / 3
	switch e := pred.(type) {
	case *ConstE:
		if b, ok := e.Val.(bool); ok {
			if b {
				return 1
			}
			return 0
		}
		return dflt
	case *NotE:
		return clamp01(1 - Selectivity(e.E, cols))
	case *BoolE:
		l, r := Selectivity(e.L, cols), Selectivity(e.R, cols)
		if e.And {
			return l * r
		}
		return clamp01(l + r - l*r)
	case *CmpE:
		return cmpSelectivity(e, cols)
	}
	return dflt
}

func cmpSelectivity(e *CmpE, cols []ColEstimate) float64 {
	const dflt = 1.0 / 3
	col, konst, op := normalizeCmp(e)
	if col == nil {
		// Column-to-column comparison: use the larger NDV when known.
		lc, lok := e.L.(*Col)
		rc, rok := e.R.(*Col)
		if lok && rok && e.Op == nrc.Eq {
			ndv := int64(0)
			if lc.Idx < len(cols) {
				ndv = cols[lc.Idx].NDV
			}
			if rc.Idx < len(cols) && cols[rc.Idx].NDV > ndv {
				ndv = cols[rc.Idx].NDV
			}
			if ndv > 0 {
				return 1 / float64(ndv)
			}
		}
		return dflt
	}
	var ce ColEstimate
	if col.Idx < len(cols) {
		ce = cols[col.Idx]
	}
	switch op {
	case nrc.Eq:
		if ce.NDV > 0 {
			return 1 / float64(ce.NDV)
		}
		return 0.1
	case nrc.Ne:
		if ce.NDV > 0 {
			return clamp01(1 - 1/float64(ce.NDV))
		}
		return 0.9
	default: // range comparison
		lo, lok := numeric(ce.Min)
		hi, hok := numeric(ce.Max)
		k, kok := numeric(konst.Val)
		if !lok || !hok || !kok || hi <= lo {
			return dflt
		}
		frac := clamp01((k - lo) / (hi - lo))
		if op == nrc.Gt || op == nrc.Ge {
			frac = 1 - frac
		}
		return clamp01(frac)
	}
}

// normalizeCmp returns the (column, constant, op) of a col-vs-const
// comparison, flipping the operator when the constant is on the left. Nil
// column means the comparison has another shape.
func normalizeCmp(e *CmpE) (*Col, *ConstE, nrc.CmpOp) {
	if c, ok := e.L.(*Col); ok {
		if k, ok := e.R.(*ConstE); ok {
			return c, k, e.Op
		}
	}
	if k, ok := e.L.(*ConstE); ok {
		if c, ok := e.R.(*Col); ok {
			return c, k, flipCmp(e.Op)
		}
	}
	return nil, nil, e.Op
}

func flipCmp(op nrc.CmpOp) nrc.CmpOp {
	switch op {
	case nrc.Lt:
		return nrc.Gt
	case nrc.Le:
		return nrc.Ge
	case nrc.Gt:
		return nrc.Lt
	case nrc.Ge:
		return nrc.Le
	}
	return op
}

func numeric(v value.Value) (float64, bool) {
	switch n := v.(type) {
	case int64:
		return float64(n), true
	case float64:
		return n, true
	case value.Date:
		return float64(n), true
	}
	return 0, false
}

func clamp01(f float64) float64 { return math.Min(1, math.Max(0, f)) }
