package plan

import "slices"

// idDeps records, for every output column of an operator, which of the
// operator's own output columns hold an AddIndex ID that functionally
// determines it: any two output rows agreeing on such an ID column agree on
// the dependent column. An ID column lists itself.
//
// An AddIndex ID is unique per row it numbered, so it determines every column
// of that row. The dependency survives the operators that only repeat, drop or
// regroup whole rows of their (left) input: σ, π's column copies, ext, μ/μ̄
// pass-through columns (the tombstone included: it is NULL on every row), the
// left side of ⋈/⟕ (through the copies of its Outs when Fuse set them), dedup,
// BagToDict, and the group and carry outputs of Γ. It is cleared for a column
// σ̄ nullifies (rows sharing an ID then differ on it), for the right side of a
// join, for computed columns, for aggregates, and by ⊎, whose inputs number
// their rows independently. A dependency is on an output position, so a π that
// drops the ID drops its dependents with it.
//
// Prune leans on this to key a Γ by the IDs alone, and Place to tell which
// co-located columns a Γ key or a join key determines. Both lean on IDs being
// unique across the light and heavy components of a skew-aware run
// (exec.heavyIDBit); TestNarrowedKeysUnderSkew in internal/runner is the
// end-to-end check.
type idDeps [][]int

// idDepsOf computes the dependencies of op's output columns; cols is the
// pass's memo of the schemas.
func idDepsOf(op Op, cols Schemas) idDeps {
	switch x := op.(type) {
	case *Select:
		return idDepsOf(x.In, cols).without(x.NullifyCols)

	case *Extend:
		return append(idDepsOf(x.In, cols), make(idDeps, len(x.Exprs))...)

	case *Project:
		return idDepsOf(x.In, cols).gather(copySources(x.Outs))

	case *AddIndex:
		in := idDepsOf(x.In, cols)
		id := len(in)
		out := make(idDeps, id+1)
		for i, d := range in {
			out[i] = append(append([]int{}, d...), id)
		}
		out[id] = []int{id}
		return out

	case *Unnest:
		full := append(idDepsOf(x.In, cols), make(idDeps, len(x.elemFields(cols.Of(x.In))))...)
		if x.Outs == nil {
			return full
		}
		return full.gather(x.Outs)

	case *Join:
		full := append(idDepsOf(x.L, cols), make(idDeps, len(cols.Of(x.R)))...)
		if x.Outs == nil {
			return full
		}
		// A fused join writes its Outs over L ++ R, as the π it replaced did.
		return full.gather(copySources(x.Outs))

	case *Nest:
		src := x.passed()
		out := idDepsOf(x.In, cols).gather(src)
		return append(out, make(idDeps, len(cols.Of(x))-len(src))...)

	case *DedupOp:
		return idDepsOf(x.In, cols)

	case *BagToDict:
		return idDepsOf(x.In, cols)
	}
	// Leaves and ⊎: nothing is known to be determined.
	return make(idDeps, len(cols.Of(op)))
}

// copySources is, per output of a projection, the input column it copies, or
// -1 for a computed one.
func copySources(outs []NamedExpr) []int {
	src := make([]int, len(outs))
	for i, ne := range outs {
		src[i] = -1
		if c, ok := ne.Expr.(*Col); ok {
			src[i] = c.Idx
		}
	}
	return src
}

// gather is the dependencies of an output whose column i copies input column
// src[i] (negative: not a copy). A dependency on an input ID becomes one on
// every output position copying that ID, and is lost when none does.
func (d idDeps) gather(src []int) idDeps {
	copies := make(map[int][]int, len(src))
	for i, s := range src {
		if s >= 0 {
			copies[s] = append(copies[s], i)
		}
	}
	out := make(idDeps, len(src))
	for i, s := range src {
		if s < 0 {
			continue
		}
		for _, id := range d[s] {
			out[i] = append(out[i], copies[id]...)
		}
	}
	return out
}

// without clears cols: they depend on nothing, and nothing depends on them.
func (d idDeps) without(cols []int) idDeps {
	if len(cols) == 0 {
		return d
	}
	out := make(idDeps, len(d))
	for i, ids := range d {
		if slices.Contains(cols, i) {
			continue
		}
		for _, id := range ids {
			if !slices.Contains(cols, id) {
				out[i] = append(out[i], id)
			}
		}
	}
	return out
}
