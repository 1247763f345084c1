package plan

import (
	"slices"

	"github.com/trance-go/trance/internal/nrc"
)

// Fuse is the last plan pass (docs/OPTIMIZER.md, "Fusion"): it merges chains
// of row-at-a-time operators so the executor writes a row once per chain
// instead of once per operator.
//
//   - π∘ext and π∘π compose into one π by inlining the inner definitions. An
//     inner CastBags π is left alone, and a chain keeps its inner operator
//     when composing would evaluate an expression other than a column or a
//     literal more than once.
//   - A π above addIndex that passes the ID through last and reads it nowhere
//     else sinks below it: π is 1:1 per row, so the IDs are the same.
//   - A π directly above ⋈/⟕ becomes the join's Outs, written by the probe.
//
// It runs after Optimize and Annotate, so only the executor and Explain see a
// Join with Outs. The input plan is not mutated.
func Fuse(op Op) Op {
	ch := op.Children()
	if len(ch) == 0 {
		return op
	}
	kids := make([]Op, len(ch))
	for i, c := range ch {
		kids[i] = Fuse(c)
	}
	return fuseNode(withChildren(op, kids...))
}

// fuseNode merges a π into its (already fused) input where a rule applies, and
// tries again on the result: a composed π may sit above the next ext or ⋈.
func fuseNode(op Op) Op {
	x, ok := op.(*Project)
	if !ok {
		return op
	}
	// over is x rewritten over in, the input of the operator below x whose
	// outputs defs define.
	over := func(in Op, defs []Expr) Op {
		if outs, ok := inline(x.Outs, defs); ok {
			return fuseNode(&Project{In: in, Outs: outs, CastBags: x.CastBags})
		}
		return op
	}
	switch in := x.In.(type) {
	case *Extend:
		return over(in.In, extendDefs(in))
	case *Project:
		if !in.CastBags {
			return over(in.In, exprsOf(in.Outs))
		}
	case *AddIndex:
		n, id := len(x.Outs)-1, len(in.In.Columns())
		readsID := func(ne NamedExpr) bool { return refsAnyCol(ne.Expr, []int{id}) }
		if n < 1 || slices.ContainsFunc(x.Outs[:n], readsID) {
			break
		}
		if c, ok := x.Outs[n].Expr.(*Col); ok && c.Idx == id {
			below := fuseNode(&Project{In: in.In, Outs: x.Outs[:n:n], CastBags: x.CastBags})
			return &AddIndex{In: below, Name: x.Outs[n].Name}
		}
	case *Join:
		// A copy, and never nil: a join with nil Outs writes L ++ R, and x may
		// keep no column at all (Prune leaves such a π over an unread join).
		outs := append([]NamedExpr{}, x.Outs...)
		if in.Outs != nil {
			if outs, ok = inline(outs, exprsOf(in.Outs)); !ok {
				break
			}
		}
		if x.CastBags {
			// The join writes the final NULL cast of its bag-typed outputs.
			for i, ne := range outs {
				_, isBag := ne.Expr.Type().(nrc.BagType)
				if _, cast := ne.Expr.(*CastNullBag); isBag && !cast {
					outs[i].Expr = &CastNullBag{E: ne.Expr}
				}
			}
		}
		return cloneWith(in, func(j *Join) { j.Outs = outs })
	}
	return op
}

func exprsOf(nes []NamedExpr) []Expr {
	out := make([]Expr, len(nes))
	for i, ne := range nes {
		out[i] = ne.Expr
	}
	return out
}

// extendDefs lists what defines each output column of e: nil for a column of
// its input, which keeps its position below e, and the expression otherwise.
func extendDefs(e *Extend) []Expr {
	base := len(e.In.Columns())
	defs := make([]Expr, base, base+len(e.Exprs))
	return append(defs, exprsOf(e.Exprs)...)
}

// inline rewrites users, expressions over the output of an operator defined
// by defs (see extendDefs), into expressions over that operator's input. It
// refuses when a definition that is neither a column nor a literal would be
// evaluated twice.
func inline(users []NamedExpr, defs []Expr) ([]NamedExpr, bool) {
	uses := make([]int, len(defs))
	for _, u := range users {
		for _, c := range ExprCols(u.Expr, nil) {
			uses[c]++
		}
	}
	for i, d := range defs {
		if _, isCol := d.(*Col); uses[i] > 1 && d != nil && !isCol && !isConst(d) {
			return nil, false
		}
	}
	out := make([]NamedExpr, len(users))
	for i, u := range users {
		out[i] = NamedExpr{Name: u.Name, Expr: substCols(u.Expr, func(c *Col) Expr {
			if d := defs[c.Idx]; d != nil {
				return d
			}
			return c
		})}
	}
	return out, true
}
