package plan

import (
	"fmt"

	"github.com/trance-go/trance/internal/metrics"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/value"
)

// This file implements the rule-based plan optimizer: predicate pushdown,
// select fusion, constant folding, and trivial-predicate elimination, applied
// at compile time to every plan of every strategy (standard plans, shredded
// program statements, and unshred plans — see runner.Compile and
// docs/OPTIMIZER.md for the rule catalogue and soundness notes).
//
// The pass is a single top-down traversal carrying a set of predicate
// conjuncts. Each Select encountered is dissolved into conjuncts; each
// conjunct independently sinks as deep as the operators below allow, and
// whatever cannot sink past an operator is re-emitted as a (fused) Select
// directly above it. Pushes are refused wherever they would change
// semantics:
//
//   - below an outer-preserving selection (Select.NullifyCols) when the
//     predicate reads a nullified column — the σ̄ changes those values;
//   - below an explicit-mode Nest (sumBy/groupBy Γ) — phantom-group marker
//     rows are created and dropped by mode-specific rules, and a predicate
//     evaluated before grouping could see rows the marker machinery needs;
//   - past AddIndex — unique-ID assignment depends on the input cardinality,
//     and the IDs feed label identity shared across plan fragments;
//   - into the null-extended side of an outer join.

// OptStats counts the optimizer rule applications of one Optimize call (a
// Compiled sums them over its plans, for EXPLAIN); the process-wide totals
// are the optimizer.* metrics declared below.
type OptStats struct {
	// PredicatesPushed counts conjunct × operator crossings: a single
	// predicate sinking below three operators counts three.
	PredicatesPushed int64
	// JoinSideDerived counts column=constant conjuncts on a join key cloned
	// onto the other join input, so both sides filter before the shuffle.
	JoinSideDerived int64
	// SelectsFused counts Select nodes dissolved into an already-collected
	// conjunct set (adjacent selections merging into one predicate).
	SelectsFused int64
	// ConstantsFolded counts scalar sub-expressions folded to literals.
	ConstantsFolded int64
	// TrueSelectsDropped counts selections proven always-true (or no-op
	// outer-preserving selections) and removed.
	TrueSelectsDropped int64
	// FalseSelectsCut counts always-false selections replaced by an empty
	// relation, truncating their whole input subtree.
	FalseSelectsCut int64
	// PushesRefused counts conjunct pushes refused on soundness grounds
	// (outer-preserving selections, explicit nests, AddIndex, outer-join
	// right sides, and predicates over tombstoned unnest columns).
	PushesRefused int64
}

// Add accumulates another stats record into s.
func (s *OptStats) Add(o OptStats) {
	s.PredicatesPushed += o.PredicatesPushed
	s.JoinSideDerived += o.JoinSideDerived
	s.SelectsFused += o.SelectsFused
	s.ConstantsFolded += o.ConstantsFolded
	s.TrueSelectsDropped += o.TrueSelectsDropped
	s.FalseSelectsCut += o.FalseSelectsCut
	s.PushesRefused += o.PushesRefused
}

// Total returns the number of rewrites applied (refusals excluded).
func (s *OptStats) Total() int64 {
	return s.PredicatesPushed + s.JoinSideDerived + s.SelectsFused +
		s.ConstantsFolded + s.TrueSelectsDropped + s.FalseSelectsCut
}

func (s *OptStats) String() string {
	return fmt.Sprintf("pushed=%d join-side=%d fused=%d folded=%d true-dropped=%d false-cut=%d refused=%d",
		s.PredicatesPushed, s.JoinSideDerived, s.SelectsFused, s.ConstantsFolded,
		s.TrueSelectsDropped, s.FalseSelectsCut, s.PushesRefused)
}

// The process-wide rule-hit counters: every Optimize call adds its OptStats.
var (
	predicatesPushed   = metrics.NewCounter("optimizer.predicates_pushed", "trance_optimizer_predicates_pushed_total", "Optimizer predicate pushdowns.")
	joinSideDerived    = metrics.NewCounter("optimizer.join_side_derived", "trance_optimizer_join_side_derived_total", "Join-side filters derived from key equalities.")
	selectsFused       = metrics.NewCounter("optimizer.selects_fused", "trance_optimizer_selects_fused_total", "Adjacent selections fused.")
	constantsFolded    = metrics.NewCounter("optimizer.constants_folded", "trance_optimizer_constants_folded_total", "Constant subexpressions folded.")
	trueSelectsDropped = metrics.NewCounter("optimizer.true_selects_dropped", "trance_optimizer_true_selects_dropped_total", "Trivially-true selections dropped.")
	falseSelectsCut    = metrics.NewCounter("optimizer.false_selects_cut", "trance_optimizer_false_selects_cut_total", "Trivially-false selections cut.")
	pushesRefused      = metrics.NewCounter("optimizer.pushes_refused", "trance_optimizer_pushes_refused_total", "Pushdowns refused at soundness boundaries.")
)

// Optimize applies the rule-based rewrite pass to a plan and returns the
// rewritten plan plus the rule-hit counts. The input plan is never mutated:
// rewritten regions are fresh nodes, untouched regions are shared.
func Optimize(op Op) (Op, OptStats) {
	var st OptStats
	out := pushdown(op, nil, &st)
	predicatesPushed.Add(st.PredicatesPushed)
	joinSideDerived.Add(st.JoinSideDerived)
	selectsFused.Add(st.SelectsFused)
	constantsFolded.Add(st.ConstantsFolded)
	trueSelectsDropped.Add(st.TrueSelectsDropped)
	falseSelectsCut.Add(st.FalseSelectsCut)
	pushesRefused.Add(st.PushesRefused)
	return out, st
}

// pushdown rewrites op so the conjuncts in preds — expressions over op's
// OUTPUT columns — are applied at or below op, as deep as soundness allows.
func pushdown(op Op, preds []Expr, st *OptStats) Op {
	switch x := op.(type) {
	case *Scan:
		return wrapSelect(x, preds)

	case *Values:
		if len(x.Rows) == 0 {
			// An empty relation satisfies every filter.
			return x
		}
		return wrapSelect(x, preds)

	case *Select:
		pred := foldExpr(x.Pred, st)
		if x.NullifyCols == nil {
			if isConstBool(pred, true) {
				st.TrueSelectsDropped++
				return pushdown(x.In, preds, st)
			}
			if isConstBool(pred, false) {
				// The whole input subtree is dead: replace it with an empty
				// literal relation of the same schema.
				st.FalseSelectsCut++
				return &Values{Cols: x.Columns()}
			}
			conj := splitConjExpr(pred)
			if len(preds) > 0 {
				st.SelectsFused++
			}
			return pushdown(x.In, append(append([]Expr{}, preds...), conj...), st)
		}
		// Outer-preserving selection σ̄: it keeps every row and nullifies
		// NullifyCols on failure. A predicate reading none of those columns
		// sees identical values below it; one that does must stay above.
		if len(x.NullifyCols) == 0 {
			// Nothing to nullify and no rows dropped: the operator is a no-op.
			st.TrueSelectsDropped++
			return pushdown(x.In, preds, st)
		}
		if isConstBool(pred, true) {
			st.TrueSelectsDropped++
			return pushdown(x.In, preds, st)
		}
		var below, above []Expr
		for _, p := range preds {
			if refsAnyCol(p, x.NullifyCols) {
				st.PushesRefused++
				above = append(above, p)
			} else {
				st.PredicatesPushed++
				below = append(below, p)
			}
		}
		out := &Select{In: pushdown(x.In, below, st), Pred: pred, NullifyCols: x.NullifyCols}
		return wrapSelect(out, above)

	case *Extend:
		base := len(x.In.Columns())
		exprs := make([]NamedExpr, len(x.Exprs))
		for i, ne := range x.Exprs {
			exprs[i] = NamedExpr{Name: ne.Name, Expr: foldExpr(ne.Expr, st)}
		}
		// Every predicate pushes: references to computed columns inline the
		// defining expression (evaluated per-row below exactly as above).
		pushed := make([]Expr, len(preds))
		for i, p := range preds {
			pushed[i] = substCols(p, func(c *Col) Expr {
				if c.Idx < base {
					return c
				}
				return exprs[c.Idx-base].Expr
			})
			st.PredicatesPushed++
		}
		return &Extend{In: pushdown(x.In, pushed, st), Exprs: exprs}

	case *Project:
		outs := make([]NamedExpr, len(x.Outs))
		for i, ne := range x.Outs {
			outs[i] = NamedExpr{Name: ne.Name, Expr: foldExpr(ne.Expr, st)}
		}
		pushed := make([]Expr, len(preds))
		for i, p := range preds {
			pushed[i] = substCols(p, func(c *Col) Expr {
				e := outs[c.Idx].Expr
				if _, isBag := e.Type().(nrc.BagType); isBag && x.CastBags {
					// The projection casts NULL bags to empty; preserve that
					// for the inlined reference.
					return &CastNullBag{E: e}
				}
				return e
			})
			st.PredicatesPushed++
		}
		return &Project{In: pushdown(x.In, pushed, st), Outs: outs, CastBags: x.CastBags}

	case *AddIndex:
		// Never push below: unique-ID assignment depends on the rows present,
		// and the IDs feed label identity shared across plan fragments
		// (dictionaries joined by label in other statements). Filtering first
		// would renumber them.
		st.PushesRefused += int64(len(preds))
		return wrapSelect(&AddIndex{In: pushdown(x.In, nil, st), Name: x.Name}, preds)

	case *Unnest:
		base := len(x.In.Columns())
		remap := make(map[int]int, len(x.Columns()))
		for i := range x.Columns() {
			remap[i] = x.Full(i)
		}
		var below, above []Expr
		for _, p := range preds {
			ok := true
			for _, c := range ExprCols(p, nil) {
				// Element columns don't exist below; the unnested bag column
				// is tombstoned (NULL) above, so its value differs too — a
				// push below would be unsound, count it as refused.
				if remap[c] == x.BagCol {
					ok = false
					st.PushesRefused++
					break
				}
				if remap[c] >= base {
					ok = false
					break
				}
			}
			if ok {
				// Sound for inner and outer unnest alike: pass-through columns
				// are unchanged and each input row maps to ≥0 output rows
				// carrying them verbatim.
				st.PredicatesPushed++
				below = append(below, RemapExpr(p, remap))
			} else {
				above = append(above, p)
			}
		}
		out := &Unnest{In: pushdown(x.In, below, st), BagCol: x.BagCol, Prefix: x.Prefix, Outer: x.Outer, Outs: x.Outs}
		return wrapSelect(out, above)

	case *Join:
		return pushJoin(x, preds, st)

	case *Nest:
		// Grouping and carry columns are constant within a group.
		passed := x.passed()
		remap := make(map[int]int, len(passed))
		for i, c := range passed {
			remap[i] = c
		}
		var below, above []Expr
		for _, p := range preds {
			cols := ExprCols(p, nil)
			groupOnly := true
			for _, c := range cols {
				if c >= len(passed) {
					groupOnly = false
					break
				}
			}
			switch {
			case groupOnly && x.Mode == Structural:
				// Filtering groups after Γ equals filtering rows before it.
				// Structural nests emit every group unconditionally, so no
				// marker-row machinery can observe the difference.
				st.PredicatesPushed++
				below = append(below, RemapExpr(p, remap))
			case groupOnly:
				// Explicit modes (sumBy/groupBy Γ) emit or drop phantom-group
				// marker rows; refuse rather than reason about them.
				st.PushesRefused++
				above = append(above, p)
			default:
				above = append(above, p)
			}
		}
		out := &Nest{
			In:           pushdown(x.In, below, st),
			GroupCols:    x.GroupCols,
			GDepth:       x.GDepth,
			CarryCols:    x.CarryCols,
			ValueCols:    x.ValueCols,
			PresenceCols: x.PresenceCols,
			Agg:          x.Agg,
			Mode:         x.Mode,
			OutName:      x.OutName,
			ScalarElem:   x.ScalarElem,
		}
		return wrapSelect(out, above)

	case *DedupOp:
		// Filtering commutes with duplicate elimination.
		st.PredicatesPushed += int64(len(preds))
		return &DedupOp{In: pushdown(x.In, preds, st)}

	case *UnionAll:
		// Both branches share the schema; the same conjuncts filter each.
		st.PredicatesPushed += int64(len(preds))
		return &UnionAll{L: pushdown(x.L, preds, st), R: pushdown(x.R, preds, st)}

	case *BagToDict:
		// Pure repartitioning: filtering before moves strictly less data.
		st.PredicatesPushed += int64(len(preds))
		return &BagToDict{In: pushdown(x.In, preds, st), LabelCol: x.LabelCol}
	}
	panic(fmt.Sprintf("plan: optimize of unknown operator %T", op))
}

// pushJoin distributes conjuncts over a join: left-only conjuncts filter the
// left input, right-only conjuncts the right input (inner joins only — the
// right side of ⟕ is null-extended, so a right-only predicate evaluated above
// drops null-extended rows a pushed filter could not), and column=constant
// conjuncts on a join key additionally derive the mirrored filter for the
// other side, so equality conjuncts cut both inputs before the shuffle.
func pushJoin(x *Join, preds []Expr, st *OptStats) Op {
	lw := len(x.L.Columns())
	lcols := x.L.Columns()
	rcols := x.R.Columns()
	var lp, rp, above []Expr
	for _, p := range preds {
		// Transitive constant transfer across the join equality. The derived
		// filter only drops rows that cannot match any row surviving the
		// original conjunct, so it is sound for inner and outer joins alike.
		if col, cst, ok := constEqCol(p); ok {
			if col.Idx < lw {
				for j, lc := range x.LCols {
					if lc == col.Idx {
						rc := x.RCols[j]
						rp = append(rp, &CmpE{Op: nrc.Eq,
							L: &Col{Idx: rc, Name: rcols[rc].Name, Typ: rcols[rc].Type}, R: cst})
						st.JoinSideDerived++
						break
					}
				}
			} else {
				for j, rc := range x.RCols {
					if rc == col.Idx-lw {
						lc := x.LCols[j]
						lp = append(lp, &CmpE{Op: nrc.Eq,
							L: &Col{Idx: lc, Name: lcols[lc].Name, Typ: lcols[lc].Type}, R: cst})
						st.JoinSideDerived++
						break
					}
				}
			}
		}
		cols := ExprCols(p, nil)
		left, right := true, true
		for _, c := range cols {
			if c >= lw {
				left = false
			} else {
				right = false
			}
		}
		switch {
		case left:
			// Sound for ⟕ too: left rows are preserved by the join, their
			// columns pass through verbatim, and dropping a left row drops
			// exactly its (matched or null-extended) output rows.
			st.PredicatesPushed++
			lp = append(lp, p)
		case right && !x.Outer:
			st.PredicatesPushed++
			rp = append(rp, substCols(p, func(c *Col) Expr {
				return &Col{Idx: c.Idx - lw, Name: c.Name, Typ: c.Typ}
			}))
		case right:
			st.PushesRefused++
			above = append(above, p)
		default:
			above = append(above, p)
		}
	}
	out := &Join{
		L: pushdown(x.L, lp, st), R: pushdown(x.R, rp, st),
		LCols: x.LCols, RCols: x.RCols, Outer: x.Outer,
	}
	return wrapSelect(out, above)
}

// constEqCol recognizes Col == Const (either order) on scalar operands.
func constEqCol(p Expr) (*Col, *ConstE, bool) {
	cmp, ok := p.(*CmpE)
	if !ok || cmp.Op != nrc.Eq {
		return nil, nil, false
	}
	if c, ok := cmp.L.(*Col); ok {
		if k, ok := cmp.R.(*ConstE); ok {
			return c, k, true
		}
	}
	if c, ok := cmp.R.(*Col); ok {
		if k, ok := cmp.L.(*ConstE); ok {
			return c, k, true
		}
	}
	return nil, nil, false
}

// wrapSelect re-emits residual conjuncts as a single fused Select above op.
func wrapSelect(op Op, preds []Expr) Op {
	if len(preds) == 0 {
		return op
	}
	pred := preds[0]
	for _, p := range preds[1:] {
		pred = &BoolE{And: true, L: pred, R: p}
	}
	return &Select{In: op, Pred: pred}
}

// splitConjExpr flattens a plan-level conjunction into conjuncts.
func splitConjExpr(e Expr) []Expr {
	if b, ok := e.(*BoolE); ok && b.And {
		return append(splitConjExpr(b.L), splitConjExpr(b.R)...)
	}
	return []Expr{e}
}

// refsAnyCol reports whether e references any of the given columns.
func refsAnyCol(e Expr, cols []int) bool {
	for _, c := range ExprCols(e, nil) {
		for _, n := range cols {
			if c == n {
				return true
			}
		}
	}
	return false
}

// substCols rewrites column references through fn, rebuilding the tree.
func substCols(e Expr, fn func(*Col) Expr) Expr {
	switch x := e.(type) {
	case *Col:
		return fn(x)
	case *ConstE:
		return x
	case *CmpE:
		return &CmpE{Op: x.Op, L: substCols(x.L, fn), R: substCols(x.R, fn)}
	case *ArithE:
		return &ArithE{Op: x.Op, L: substCols(x.L, fn), R: substCols(x.R, fn), Typ: x.Typ}
	case *NotE:
		return &NotE{E: substCols(x.E, fn)}
	case *BoolE:
		return &BoolE{And: x.And, L: substCols(x.L, fn), R: substCols(x.R, fn)}
	case *MkTuple:
		es := make([]Expr, len(x.Exprs))
		for i, s := range x.Exprs {
			es[i] = substCols(s, fn)
		}
		return &MkTuple{Names: x.Names, Exprs: es}
	case *MkLabel:
		es := make([]Expr, len(x.Args))
		for i, s := range x.Args {
			es[i] = substCols(s, fn)
		}
		return &MkLabel{Site: x.Site, Args: es}
	case *LabelField:
		return &LabelField{E: substCols(x.E, fn), Site: x.Site, Idx: x.Idx, NParams: x.NParams, Typ: x.Typ}
	case *CastNullBag:
		return &CastNullBag{E: substCols(x.E, fn)}
	default:
		panic(fmt.Sprintf("plan: unknown expr %T", e))
	}
}

// isConstBool reports whether e is the boolean literal b.
func isConstBool(e Expr, b bool) bool {
	c, ok := e.(*ConstE)
	if !ok {
		return false
	}
	v, ok := c.Val.(bool)
	return ok && v == b
}

// neverNull reports whether e's Eval can never return NULL — the comparison,
// negation, boolean and non-NULL literal nodes coerce NULL operands to a
// boolean. Column references can be NULL (null-extended rows), so replacing
// `true && col` by `col` would turn a false into a NULL; the short-circuit
// simplifications below only fire when the survivor is NULL-free.
func neverNull(e Expr) bool {
	switch x := e.(type) {
	case *CmpE, *NotE, *BoolE:
		return true
	case *ConstE:
		return x.Val != nil
	}
	return false
}

// foldExpr performs constant folding with the engine's own NULL semantics:
// scalar operator nodes whose operands are all literals are evaluated once at
// compile time, and boolean connectives with a literal side short-circuit
// when doing so cannot change NULL coercion.
func foldExpr(e Expr, st *OptStats) Expr {
	switch x := e.(type) {
	case *Col, *ConstE:
		return e
	case *CmpE:
		l, r := foldExpr(x.L, st), foldExpr(x.R, st)
		if isConst(l) && isConst(r) {
			st.ConstantsFolded++
			return &ConstE{Val: (&CmpE{Op: x.Op, L: l, R: r}).Eval(nil), Typ: nrc.BoolT}
		}
		return &CmpE{Op: x.Op, L: l, R: r}
	case *ArithE:
		l, r := foldExpr(x.L, st), foldExpr(x.R, st)
		if isConst(l) && isConst(r) {
			st.ConstantsFolded++
			return &ConstE{Val: (&ArithE{Op: x.Op, L: l, R: r, Typ: x.Typ}).Eval(nil), Typ: x.Typ}
		}
		return &ArithE{Op: x.Op, L: l, R: r, Typ: x.Typ}
	case *NotE:
		sub := foldExpr(x.E, st)
		if isConst(sub) {
			st.ConstantsFolded++
			return &ConstE{Val: (&NotE{E: sub}).Eval(nil), Typ: nrc.BoolT}
		}
		return &NotE{E: sub}
	case *BoolE:
		l, r := foldExpr(x.L, st), foldExpr(x.R, st)
		if isConst(l) && isConst(r) {
			st.ConstantsFolded++
			return &ConstE{Val: (&BoolE{And: x.And, L: l, R: r}).Eval(nil), Typ: nrc.BoolT}
		}
		if x.And {
			if isConstBool(l, false) || isConstBool(r, false) {
				st.ConstantsFolded++
				return &ConstE{Val: false, Typ: nrc.BoolT}
			}
			if isConstBool(l, true) && neverNull(r) {
				st.ConstantsFolded++
				return r
			}
			if isConstBool(r, true) && neverNull(l) {
				st.ConstantsFolded++
				return l
			}
		} else {
			if isConstBool(l, true) || isConstBool(r, true) {
				st.ConstantsFolded++
				return &ConstE{Val: true, Typ: nrc.BoolT}
			}
			if isConstBool(l, false) && neverNull(r) {
				st.ConstantsFolded++
				return r
			}
			if isConstBool(r, false) && neverNull(l) {
				st.ConstantsFolded++
				return l
			}
		}
		return &BoolE{And: x.And, L: l, R: r}
	case *MkTuple:
		es := make([]Expr, len(x.Exprs))
		for i, s := range x.Exprs {
			es[i] = foldExpr(s, st)
		}
		return &MkTuple{Names: x.Names, Exprs: es}
	case *MkLabel:
		es := make([]Expr, len(x.Args))
		for i, s := range x.Args {
			es[i] = foldExpr(s, st)
		}
		return &MkLabel{Site: x.Site, Args: es}
	case *LabelField:
		return &LabelField{E: foldExpr(x.E, st), Site: x.Site, Idx: x.Idx, NParams: x.NParams, Typ: x.Typ}
	case *CastNullBag:
		sub := foldExpr(x.E, st)
		if c, ok := sub.(*ConstE); ok && c.Val == nil {
			st.ConstantsFolded++
			return &ConstE{Val: value.Bag{}, Typ: c.Typ}
		}
		return &CastNullBag{E: sub}
	}
	panic(fmt.Sprintf("plan: unknown expr %T", e))
}

// isConst reports whether e is a literal.
func isConst(e Expr) bool {
	_, ok := e.(*ConstE)
	return ok
}
