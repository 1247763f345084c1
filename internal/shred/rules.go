package shred

import (
	"fmt"
	"slices"

	"github.com/trance-go/trance/internal/nrc"
)

// replaceSymbolicDicts rewrites Lookup(δ, l) on symbolic dictionaries into
// MatLookup on their materialized counterparts (ReplaceSymbolicDicts of paper
// Figure 5). Every referenced dictionary must already have a materialized
// name — guaranteed by the top-down traversal.
func (m *materializer) replaceSymbolicDicts(e nrc.Expr) (nrc.Expr, error) {
	var err error
	var walk func(nrc.Expr) nrc.Expr
	walk = func(e nrc.Expr) nrc.Expr {
		if lk, ok := e.(*nrc.Lookup); ok {
			dv, isVar := lk.Dict.(*nrc.Var)
			if !isVar {
				err = fmt.Errorf("shred: Lookup on non-symbolic dictionary %T", lk.Dict)
				return e
			}
			entry, known := m.sh.symbols[dv.Name]
			if !known {
				err = fmt.Errorf("shred: unknown symbolic dictionary %s", dv.Name)
				return e
			}
			if entry.MatName == "" {
				err = fmt.Errorf("shred: symbolic dictionary %s not yet materialized", dv.Name)
				return e
			}
			return &nrc.MatLookup{
				Dict:  &nrc.Var{Name: entry.MatName},
				Label: walk(lk.Label),
			}
		}
		return nrc.MapChildren(e, walk)
	}
	out := walk(e)
	return out, err
}

// lookupEntry resolves a symbolic dictionary variable.
func (m *materializer) lookupEntry(e nrc.Expr) (*DictEntry, bool) {
	dv, ok := e.(*nrc.Var)
	if !ok {
		return nil, false
	}
	entry, known := m.sh.symbols[dv.Name]
	return entry, known
}

// unwrapSumBy splits an optional sumBy wrapper off a dictionary body.
func unwrapSumBy(e nrc.Expr) (nrc.Expr, *nrc.SumBy) {
	if sb, ok := e.(*nrc.SumBy); ok {
		return sb.E, sb
	}
	return e, nil
}

// tryRule1 implements the first domain-elimination rule of paper Section 4:
// a dictionary of the form
//
//	λl. match l = NewLabel(x) then for y in Lookup(D, x) union e
//
// (optionally wrapped in a sumBy) is computed directly from the materialized
// parent dictionary MatD, skipping the label domain. The label-reuse
// refinement makes the output labels identical to MatD's, so the identity
// case (e = {y}) degenerates to an alias.
func (m *materializer) tryRule1(entry *DictEntry) (nrc.Expr, bool, error) {
	if len(entry.Params) != 1 || !nrc.TypesEqual(entry.Params[0].Type, nrc.LabelT) {
		return nil, false, nil
	}
	p := entry.Params[0].Name
	body, sum := unwrapSumBy(entry.Body)

	// Identity carry: the dictionary is the parent dictionary unchanged.
	if lk, ok := body.(*nrc.Lookup); ok && sum == nil {
		if lbl, isVar := lk.Label.(*nrc.Var); isVar && lbl.Name == p {
			if src, known := m.lookupEntry(lk.Dict); known && src.MatName != "" {
				return &nrc.Var{Name: src.MatName}, true, nil
			}
		}
		return nil, false, nil
	}

	f, ok := body.(*nrc.For)
	if !ok {
		return nil, false, nil
	}
	lk, ok := f.Source.(*nrc.Lookup)
	if !ok {
		return nil, false, nil
	}
	lbl, ok := lk.Label.(*nrc.Var)
	if !ok || lbl.Name != p {
		return nil, false, nil
	}
	src, known := m.lookupEntry(lk.Dict)
	if !known || src.MatName == "" {
		return nil, false, nil
	}
	if nrc.FreeVars(f.Body)[p] {
		return nil, false, nil // the label is used beyond the lookup
	}

	z := m.freshVar("z")
	rest := nrc.Substitute(f.Body, map[string]nrc.Expr{f.Var: nrc.V(z)})
	rest, err := addLabelToHead(rest, nrc.P(nrc.V(z), "label"))
	if err != nil {
		return nil, false, nil // unexpected body shape: fall back
	}
	out, err := m.replaceSymbolicDicts(&nrc.For{Var: z, Source: &nrc.Var{Name: src.MatName}, Body: rest})
	if err != nil {
		return nil, false, err
	}
	if sum != nil {
		out = &nrc.SumBy{E: out, Keys: append([]string{"label"}, sum.Keys...), Values: sum.Values}
	}
	return out, true, nil
}

// tryRule2 implements the second domain-elimination rule: a dictionary
//
//	λl. match l = NewLabel(x₁, …, xₙ) then for y in Y union … if (e₁ == x₁) … then e'
//
// whose label captures scalars each used only in one equality filter is
// computed from Y directly, with the label rebuilt from the compared values
// (transforming the xᵢ from free to bound).
func (m *materializer) tryRule2(entry *DictEntry) (nrc.Expr, bool, error) {
	if len(entry.Params) == 0 {
		return nil, false, nil
	}
	body, sum := unwrapSumBy(entry.Body)
	lblExpr := &nrc.NewLabel{Site: entry.Site}
	for _, p := range entry.Params {
		if _, isScalar := p.Type.(nrc.ScalarType); !isScalar {
			return nil, false, nil
		}
		var capExpr nrc.Expr
		var found bool
		if body, capExpr, found = stripEqFilter(body, p.Name); !found {
			return nil, false, nil
		}
		lblExpr.Capture = append(lblExpr.Capture, nrc.NamedExpr{Name: p.Name, Expr: capExpr})
	}
	for _, p := range entry.Params {
		if nrc.FreeVars(body)[p.Name] || slices.ContainsFunc(lblExpr.Capture, func(c nrc.NamedExpr) bool { return nrc.FreeVars(c.Expr)[p.Name] }) {
			return nil, false, nil // a parameter used beyond its equality
		}
	}
	rewritten, err := addLabelToHead(body, lblExpr)
	if err != nil {
		return nil, false, nil
	}
	out, err := m.replaceSymbolicDicts(rewritten)
	if err != nil {
		return nil, false, err
	}
	if sum != nil {
		out = &nrc.SumBy{E: out, Keys: append([]string{"label"}, sum.Keys...), Values: sum.Values}
	}
	return out, true, nil
}

// stripEqFilter removes the first equality filter comparing the parameter p
// with an expression free of p, returning the rewritten body and the compared
// expression.
func stripEqFilter(e nrc.Expr, p string) (nrc.Expr, nrc.Expr, bool) {
	switch x := e.(type) {
	case *nrc.For:
		if x.Var == p {
			return e, nil, false
		}
		body, cap, ok := stripEqFilter(x.Body, p)
		if !ok {
			return e, nil, false
		}
		return &nrc.For{Var: x.Var, Source: x.Source, Body: body}, cap, true
	case *nrc.If:
		if cap, rest, ok := matchEqCond(x.Cond, p); ok {
			if rest == nil {
				return x.Then, cap, true
			}
			return &nrc.If{Cond: rest, Then: x.Then, Else: x.Else}, cap, true
		}
		body, cap, ok := stripEqFilter(x.Then, p)
		if !ok {
			return e, nil, false
		}
		return &nrc.If{Cond: x.Cond, Then: body, Else: x.Else}, cap, true
	}
	return e, nil, false
}

// matchEqCond recognizes p == e (or e == p) possibly inside a conjunction;
// it returns the compared expression and the remaining condition.
func matchEqCond(cond nrc.Expr, p string) (cap nrc.Expr, rest nrc.Expr, ok bool) {
	switch x := cond.(type) {
	case *nrc.Cmp:
		if x.Op != nrc.Eq {
			return nil, nil, false
		}
		if v, isVar := x.L.(*nrc.Var); isVar && v.Name == p && !nrc.FreeVars(x.R)[p] {
			return x.R, nil, true
		}
		if v, isVar := x.R.(*nrc.Var); isVar && v.Name == p && !nrc.FreeVars(x.L)[p] {
			return x.L, nil, true
		}
	case *nrc.BoolBin:
		if !x.And {
			return nil, nil, false
		}
		if cap, rest, ok := matchEqCond(x.L, p); ok {
			return cap, conj(rest, x.R), true
		}
		if cap, rest, ok := matchEqCond(x.R, p); ok {
			return cap, conj(x.L, rest), true
		}
	}
	return nil, nil, false
}

func conj(a, b nrc.Expr) nrc.Expr {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return &nrc.BoolBin{And: true, L: a, R: b}
}

// addLabelToHead prepends a "label" field to the head of a comprehension.
func addLabelToHead(e nrc.Expr, label nrc.Expr) (nrc.Expr, error) {
	switch x := e.(type) {
	case *nrc.For:
		body, err := addLabelToHead(x.Body, label)
		if err != nil {
			return nil, err
		}
		return &nrc.For{Var: x.Var, Source: x.Source, Body: body}, nil
	case *nrc.If:
		then, err := addLabelToHead(x.Then, label)
		if err != nil {
			return nil, err
		}
		var els nrc.Expr
		if x.Else != nil {
			els, err = addLabelToHead(x.Else, label)
			if err != nil {
				return nil, err
			}
		}
		return &nrc.If{Cond: x.Cond, Then: then, Else: els}, nil
	case *nrc.Sing:
		if tc, ok := x.Elem.(*nrc.TupleCtor); ok {
			fields := append([]nrc.NamedExpr{{Name: "label", Expr: label}}, tc.Fields...)
			return &nrc.Sing{Elem: &nrc.TupleCtor{Fields: fields}}, nil
		}
		// A tuple-typed element that is not a constructor (e.g. the head of
		// "if p then {o}" for a bound variable o) must still flatten to one
		// column per field: the dictionary's (label, field…) encoding — and
		// unshredding, which reads it back per field — is derived from the
		// element type, so collapsing the tuple into a single _value column
		// would desynchronize the materialized schema from its consumers.
		if tt, ok := x.Elem.Type().(nrc.TupleType); ok {
			fields := make([]nrc.NamedExpr, 0, len(tt.Fields)+1)
			fields = append(fields, nrc.NamedExpr{Name: "label", Expr: label})
			for _, f := range tt.Fields {
				p := &nrc.Proj{Tuple: x.Elem, Field: f.Name}
				nrc.SetType(p, f.Type)
				fields = append(fields, nrc.NamedExpr{Name: f.Name, Expr: p})
			}
			return &nrc.Sing{Elem: &nrc.TupleCtor{Fields: fields}}, nil
		}
		return &nrc.Sing{Elem: &nrc.TupleCtor{Fields: []nrc.NamedExpr{
			{Name: "label", Expr: label},
			{Name: "_value", Expr: x.Elem},
		}}}, nil
	case *nrc.Union:
		l, err := addLabelToHead(x.L, label)
		if err != nil {
			return nil, err
		}
		r, err := addLabelToHead(x.R, label)
		if err != nil {
			return nil, err
		}
		return &nrc.Union{L: l, R: r}, nil
	case *nrc.Empty:
		return e, nil
	}
	return nil, fmt.Errorf("shred: cannot add label to head of %T", e)
}

// bodyElemNames derives the flat element field names of a dictionary body.
func (m *materializer) bodyElemNames(entry *DictEntry) ([]string, error) {
	if entry.Alts != nil {
		return m.bodyElemNames(entry.Alts[0])
	}
	if entry.ElemNames != nil {
		return entry.ElemNames, nil
	}
	names, err := m.elemNamesOf(entry.Body)
	if err != nil {
		return nil, err
	}
	entry.ElemNames = names
	return names, nil
}

func (m *materializer) elemNamesOf(e nrc.Expr) ([]string, error) {
	switch x := e.(type) {
	case *nrc.SumBy:
		return append(append([]string{}, x.Keys...), x.Values...), nil
	case *nrc.For:
		return m.elemNamesOf(x.Body)
	case *nrc.If:
		return m.elemNamesOf(x.Then)
	case *nrc.MatchLabel:
		return m.elemNamesOf(x.Body)
	case *nrc.Union:
		return m.elemNamesOf(x.L)
	case *nrc.Sing:
		if tc, ok := x.Elem.(*nrc.TupleCtor); ok {
			names := make([]string, len(tc.Fields))
			for i, f := range tc.Fields {
				names[i] = f.Name
			}
			return names, nil
		}
		// Mirror addLabelToHead: tuple-typed elements flatten per field.
		if tt, ok := x.Elem.Type().(nrc.TupleType); ok {
			names := make([]string, len(tt.Fields))
			for i, f := range tt.Fields {
				names[i] = f.Name
			}
			return names, nil
		}
		return []string{"_value"}, nil
	case *nrc.Lookup:
		if entry, ok := m.lookupEntry(x.Dict); ok {
			return m.bodyElemNames(entry)
		}
	case *nrc.Empty:
		if tt, ok := x.ElemType.(nrc.TupleType); ok {
			names := make([]string, len(tt.Fields))
			for i, f := range tt.Fields {
				names[i] = f.Name
			}
			return names, nil
		}
		return []string{"_value"}, nil
	}
	return nil, fmt.Errorf("shred: cannot derive element fields of %T", e)
}
