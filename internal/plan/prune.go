package plan

import (
	"fmt"
	"slices"
)

// Prune performs column pruning (paper Section 3, Optimization): unused
// columns are projected away before the data-moving operators (joins and
// nests), and computed columns nobody reads are dropped. This is the
// optimization that lets the shredded route drop all non-label attributes of
// intermediate dictionaries (paper Section 6, nested-to-flat discussion).
//
// Pruning reaches through Γ and μ (docs/OPTIMIZER.md): a grouping column an
// AddIndex ID in the key determines (idDeps) leaves the key — carried when the
// parent reads it, pruned down to the scan when nobody does — and μ writes
// only the columns read above it.
//
// Every output column is needed and the layout is kept: the root of a plan,
// like an input of ⊎, is read by position.
func Prune(op Op) Op { return pruneRoot(op, Schemas{}) }

// pruneRoot is Prune over the pass's memo of the schemas.
func pruneRoot(op Op, cols Schemas) Op {
	n := len(cols.Of(op))
	need := make([]bool, n)
	for i := range need {
		need[i] = true
	}
	in, rm := prune(op, need, cols)
	inCols := cols.Of(in)
	inPlace := len(inCols) == n
	for i := 0; inPlace && i < n; i++ {
		inPlace = rm[i] == i
	}
	if inPlace {
		return in
	}
	outs := make([]NamedExpr, n)
	for i := range outs {
		c := inCols[rm[i]]
		outs[i] = NamedExpr{Name: c.Name, Expr: &Col{Idx: rm[i], Name: c.Name, Typ: c.Type}}
	}
	return &Project{In: in, Outs: outs}
}

// prune rewrites op to compute (at least) the needed columns, returning the
// rewritten operator and the old→new position map, which covers every column
// marked needed. cols is the pass's memo of the schemas.
func prune(op Op, need []bool, cols Schemas) (Op, map[int]int) {
	switch x := op.(type) {
	case *Scan, *Values:
		return op, identity(len(cols.Of(op)))

	case *Select:
		w := len(cols.Of(x.In))
		childNeed := cloneNeed(need, w)
		markCols(childNeed, ExprCols(x.Pred, nil))
		markCols(childNeed, x.NullifyCols)
		in, rm := prune(x.In, childNeed, cols)
		return &Select{
			In:          in,
			Pred:        RemapExpr(x.Pred, rm),
			NullifyCols: remapInts(x.NullifyCols, rm),
		}, rm

	case *Extend:
		base := len(cols.Of(x.In))
		childNeed := make([]bool, base)
		for i := 0; i < base && i < len(need); i++ {
			childNeed[i] = need[i]
		}
		var kept []int
		for i := range x.Exprs {
			if need[base+i] {
				kept = append(kept, i)
				markCols(childNeed, ExprCols(x.Exprs[i].Expr, nil))
			}
		}
		in, rm := prune(x.In, childNeed, cols)
		newBase := len(cols.Of(in))
		exprs := make([]NamedExpr, len(kept))
		out := copyMap(rm)
		for j, i := range kept {
			exprs[j] = NamedExpr{Name: x.Exprs[i].Name, Expr: RemapExpr(x.Exprs[i].Expr, rm)}
			out[base+i] = newBase + j
		}
		if len(exprs) == 0 {
			return in, out
		}
		return &Extend{In: in, Exprs: exprs}, out

	case *Project:
		childNeed := make([]bool, len(cols.Of(x.In)))
		var outs []NamedExpr
		out := map[int]int{}
		for i, ne := range x.Outs {
			if !need[i] {
				continue
			}
			out[i] = len(outs)
			outs = append(outs, ne)
			markCols(childNeed, ExprCols(ne.Expr, nil))
		}
		in, rm := prune(x.In, childNeed, cols)
		for i := range outs {
			outs[i] = NamedExpr{Name: outs[i].Name, Expr: RemapExpr(outs[i].Expr, rm)}
		}
		return &Project{In: in, Outs: outs, CastBags: x.CastBags}, out

	case *AddIndex:
		base := len(cols.Of(x.In))
		childNeed := make([]bool, base)
		for i := 0; i < base && i < len(need); i++ {
			childNeed[i] = need[i]
		}
		in, rm := prune(x.In, childNeed, cols)
		out := copyMap(rm)
		out[base] = len(cols.Of(in))
		return &AddIndex{In: in, Name: x.Name}, out

	case *Unnest:
		base := len(cols.Of(x.In))
		childNeed := make([]bool, base)
		childNeed[x.BagCol] = true
		for i := range cols.Of(x) {
			if c := x.Full(i); need[i] && c < base {
				childNeed[c] = true
			}
		}
		in, rm := prune(x.In, childNeed, cols)
		newBase := len(cols.Of(in))
		// μ writes what is read above it, and nothing else.
		outs := []int{}
		out := map[int]int{}
		for i := range cols.Of(x) {
			if !need[i] {
				continue
			}
			out[i] = len(outs)
			if c := x.Full(i); c < base {
				outs = append(outs, rm[c])
			} else {
				outs = append(outs, newBase+c-base)
			}
		}
		return &Unnest{In: in, BagCol: rm[x.BagCol], Prefix: x.Prefix, Outer: x.Outer, Outs: outs}, out

	case *Join:
		lw := len(cols.Of(x.L))
		rw := len(cols.Of(x.R))
		lNeed := make([]bool, lw)
		rNeed := make([]bool, rw)
		for i := 0; i < lw && i < len(need); i++ {
			lNeed[i] = need[i]
		}
		for i := 0; i < rw && lw+i < len(need); i++ {
			rNeed[i] = need[lw+i]
		}
		markCols(lNeed, x.LCols)
		markCols(rNeed, x.RCols)
		l, lrm := pruneNarrow(x.L, lNeed, cols)
		r, rrm := pruneNarrow(x.R, rNeed, cols)
		out := copyMap(lrm)
		nlw := len(cols.Of(l))
		for old, nw := range rrm {
			out[lw+old] = nlw + nw
		}
		return &Join{
			L: l, R: r,
			LCols: remapInts(x.LCols, lrm),
			RCols: remapInts(x.RCols, rrm),
			Outer: x.Outer,
		}, out

	case *Nest:
		// An ID in the key determines some of the other grouping columns: the
		// groups are the same without them, and any row of a group holds their
		// value. Each is dropped against a column still in the key, so of two
		// copies of an ID one stays.
		deps := idDepsOf(x.In, cols)
		passed := x.passed()
		inKey := make([]bool, len(passed))
		for i := range x.GroupCols {
			inKey[i] = true
		}
		for i, c := range x.GroupCols {
			for j, k := range x.GroupCols {
				if j != i && inKey[j] && slices.Contains(deps[c], k) {
					inKey[i] = false
					break
				}
			}
		}
		// Output layout: key ++ carries ++ aggregate(s). A determined grouping
		// column joins the carries; a carry is kept when the parent reads it.
		var key, carry []int
		gdepth := 0
		out := map[int]int{}
		for pos, c := range passed {
			if inKey[pos] {
				out[pos] = len(key)
				key = append(key, c)
				if pos < x.GDepth {
					gdepth++
				}
			}
		}
		for pos, c := range passed {
			if !inKey[pos] && need[pos] {
				out[pos] = len(key) + len(carry)
				carry = append(carry, c)
			}
		}
		for i := len(passed); i < len(cols.Of(x)); i++ {
			out[i] = len(key) + len(carry) + i - len(passed)
		}
		childNeed := make([]bool, len(cols.Of(x.In)))
		markCols(childNeed, key)
		markCols(childNeed, carry)
		markCols(childNeed, x.ValueCols)
		markCols(childNeed, x.PresenceCols)
		in, rm := pruneNarrow(x.In, childNeed, cols)
		return &Nest{
			In:           in,
			GroupCols:    remapInts(key, rm),
			GDepth:       gdepth,
			CarryCols:    remapInts(carry, rm),
			ValueCols:    remapInts(x.ValueCols, rm),
			PresenceCols: remapInts(x.PresenceCols, rm),
			Agg:          x.Agg,
			Mode:         x.Mode,
			OutName:      x.OutName,
			ScalarElem:   x.ScalarElem,
		}, out

	case *DedupOp:
		// Dedup compares whole rows: every column is semantically needed.
		all := make([]bool, len(cols.Of(x.In)))
		for i := range all {
			all[i] = true
		}
		in, rm := prune(x.In, all, cols)
		return &DedupOp{In: in}, rm

	case *UnionAll:
		// Both branches must keep identical layouts: require everything.
		return &UnionAll{L: pruneRoot(x.L, cols), R: pruneRoot(x.R, cols)}, identity(len(cols.Of(x)))

	case *BagToDict:
		w := len(cols.Of(x.In))
		childNeed := cloneNeed(need, w)
		childNeed[x.LabelCol] = true
		in, rm := prune(x.In, childNeed, cols)
		return &BagToDict{In: in, LabelCol: rm[x.LabelCol]}, rm
	}
	panic(fmt.Sprintf("plan: prune of unknown operator %T", op))
}

// pruneNarrow prunes the child and then inserts an explicit narrowing
// projection when unused pass-through columns remain, so joins and nests
// never shuffle dead columns.
func pruneNarrow(op Op, need []bool, schema Schemas) (Op, map[int]int) {
	in, rm := prune(op, need, schema)
	cols := schema.Of(in)
	// Columns actually required at the new positions.
	req := make([]bool, len(cols))
	for old, ok := range iterNeed(need) {
		if ok {
			req[rm[old]] = true
		}
	}
	n := 0
	for _, ok := range req {
		if ok {
			n++
		}
	}
	if n == len(cols) {
		return in, rm
	}
	var outs []NamedExpr
	newPos := map[int]int{}
	for i, ok := range req {
		if !ok {
			continue
		}
		newPos[i] = len(outs)
		outs = append(outs, NamedExpr{Name: cols[i].Name, Expr: &Col{Idx: i, Name: cols[i].Name, Typ: cols[i].Type}})
	}
	final := map[int]int{}
	for old, ok := range iterNeed(need) {
		if ok {
			final[old] = newPos[rm[old]]
		}
	}
	return &Project{In: in, Outs: outs}, final
}

func iterNeed(need []bool) map[int]bool {
	out := make(map[int]bool, len(need))
	for i, ok := range need {
		out[i] = ok
	}
	return out
}

func identity(n int) map[int]int {
	out := make(map[int]int, n)
	for i := 0; i < n; i++ {
		out[i] = i
	}
	return out
}

func cloneNeed(need []bool, w int) []bool {
	out := make([]bool, w)
	for i := 0; i < w && i < len(need); i++ {
		out[i] = need[i]
	}
	return out
}

func markCols(need []bool, cols []int) {
	for _, c := range cols {
		need[c] = true
	}
}

func remapInts(xs []int, rm map[int]int) []int {
	if xs == nil {
		return nil
	}
	out := make([]int, len(xs))
	for i, x := range xs {
		n, ok := rm[x]
		if !ok {
			panic(fmt.Sprintf("plan: prune lost column %d", x))
		}
		out[i] = n
	}
	return out
}

func copyMap(m map[int]int) map[int]int {
	out := make(map[int]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
