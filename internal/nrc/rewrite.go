package nrc

import (
	"fmt"
	"slices"
)

// FreeVars returns the free variables of e.
func FreeVars(e Expr) map[string]bool {
	out := map[string]bool{}
	freeVars(e, map[string]int{}, out)
	return out
}

// freeVars adds to out every variable of e that no enclosing binder holds;
// bound counts the enclosing binders of each name.
func freeVars(e Expr, bound map[string]int, out map[string]bool) {
	if v, ok := e.(*Var); ok {
		if bound[v.Name] == 0 {
			out[v.Name] = true
		}
		return
	}
	MapScoped(e, func(c Expr, binds []string) Expr {
		for _, b := range binds {
			bound[b]++
		}
		freeVars(c, bound, out)
		for _, b := range binds {
			bound[b]--
		}
		return c
	})
}

// Copy deep-copies an expression tree. Types stored on the source nodes are
// carried over; structural rewrites that change typing must re-Check.
func Copy(e Expr) Expr {
	return Substitute(e, nil)
}

// Substitute returns a copy of e with free occurrences of each variable in
// subst replaced by (a copy of) its expression. Binders shadow as expected.
// Each copied node inherits the source node's stored type (when the copy has
// none of its own), so compiler stages that read types off rewritten
// fragments — e.g. the materializer flattening a tuple-typed head — keep
// working; a re-Check overrides them wherever the rewrite changed typing.
func Substitute(e Expr, subst map[string]Expr) Expr {
	out := substitute(e, subst)
	if out != nil && out.Type() == nil {
		if t := e.Type(); t != nil {
			SetType(out, t)
		}
	}
	return out
}

func substitute(e Expr, subst map[string]Expr) Expr {
	switch x := e.(type) {
	case *Var:
		if r, ok := subst[x.Name]; ok {
			return Substitute(r, nil) // copy of the replacement
		}
		return &Var{Name: x.Name}
	// The childless terms, which MapScoped hands back as they are.
	case *Const:
		return &Const{Val: x.Val}
	case *Empty:
		return &Empty{ElemType: x.ElemType}
	case *TupleCtor:
		if len(x.Fields) == 0 {
			return &TupleCtor{Fields: x.Fields}
		}
	case *NewLabel:
		if len(x.Capture) == 0 {
			return &NewLabel{Site: x.Site, Capture: x.Capture}
		}
	}
	return MapScoped(e, func(c Expr, binds []string) Expr {
		return Substitute(c, without(subst, binds))
	})
}

// without is subst less the bindings of names, which a binder shadows.
func without(subst map[string]Expr, names []string) map[string]Expr {
	for i, n := range names {
		if _, ok := subst[n]; ok {
			out := make(map[string]Expr, len(subst))
			for k, v := range subst {
				if !slices.Contains(names[i:], k) {
					out[k] = v
				}
			}
			return out
		}
	}
	return subst
}

// InlineLets replaces every let binding by substitution — the Normalize step
// of the materialization algorithm (paper Figure 5, line 3). NRC is pure, so
// inlining preserves semantics; it may duplicate work, which the plan-level
// common-subexpression handling tolerates at this scale.
func InlineLets(e Expr) Expr {
	e = Substitute(e, nil)
	return inlineLets(e)
}

func inlineLets(e Expr) Expr {
	if l, ok := e.(*Let); ok {
		val := inlineLets(l.Val)
		body := inlineLets(l.Body)
		return inlineLets(Substitute(body, map[string]Expr{l.Var: val}))
	}
	return MapChildren(e, inlineLets)
}

// MapChildren is MapScoped for a walk that tracks no binders; one that
// substitutes or captures variables must use MapScoped.
func MapChildren(e Expr, fn func(Expr) Expr) Expr {
	return MapScoped(e, func(c Expr, _ []string) Expr { return fn(c) })
}

// Children returns the direct child expressions of e.
func Children(e Expr) []Expr {
	var out []Expr
	MapScoped(e, func(c Expr, _ []string) Expr {
		out = append(out, c)
		return c
	})
	return out
}

// MapScoped rebuilds e with fn applied to every direct child, in order, and
// is the one place that knows a term's children and its binders: binds names
// the variables e binds over that child — a for or let body binds its
// variable, a match-label body its params and a λ body its param. A term whose
// children fn all returned unchanged comes back as it is, so a walk that only
// reads allocates no nodes; a childless term always does. A missing else
// branch is not a child.
func MapScoped(e Expr, fn func(child Expr, binds []string) Expr) Expr {
	switch x := e.(type) {
	case *Const, *Var, *Empty, nil:
	case *Proj:
		if t := fn(x.Tuple, nil); t != x.Tuple {
			return &Proj{Tuple: t, Field: x.Field}
		}
	case *TupleCtor:
		if fs, changed := mapNamed(x.Fields, fn); changed {
			return &TupleCtor{Fields: fs}
		}
	case *Sing:
		if c := fn(x.Elem, nil); c != x.Elem {
			return &Sing{Elem: c}
		}
	case *Get:
		if b := fn(x.Bag, nil); b != x.Bag {
			return &Get{Bag: b}
		}
	case *For:
		if s, b := fn(x.Source, nil), fn(x.Body, []string{x.Var}); s != x.Source || b != x.Body {
			return &For{Var: x.Var, Source: s, Body: b}
		}
	case *Union:
		if l, r := fn(x.L, nil), fn(x.R, nil); l != x.L || r != x.R {
			return &Union{L: l, R: r}
		}
	case *Let:
		if v, b := fn(x.Val, nil), fn(x.Body, []string{x.Var}); v != x.Val || b != x.Body {
			return &Let{Var: x.Var, Val: v, Body: b}
		}
	case *If:
		c, t, els := fn(x.Cond, nil), fn(x.Then, nil), x.Else
		if els != nil {
			els = fn(els, nil)
		}
		if c != x.Cond || t != x.Then || els != x.Else {
			return &If{Cond: c, Then: t, Else: els}
		}
	case *Cmp:
		if l, r := fn(x.L, nil), fn(x.R, nil); l != x.L || r != x.R {
			return &Cmp{Op: x.Op, L: l, R: r}
		}
	case *Arith:
		if l, r := fn(x.L, nil), fn(x.R, nil); l != x.L || r != x.R {
			return &Arith{Op: x.Op, L: l, R: r}
		}
	case *Not:
		if c := fn(x.E, nil); c != x.E {
			return &Not{E: c}
		}
	case *BoolBin:
		if l, r := fn(x.L, nil), fn(x.R, nil); l != x.L || r != x.R {
			return &BoolBin{And: x.And, L: l, R: r}
		}
	case *Dedup:
		if c := fn(x.E, nil); c != x.E {
			return &Dedup{E: c}
		}
	case *GroupBy:
		if c := fn(x.E, nil); c != x.E {
			return &GroupBy{E: c, Keys: x.Keys, GroupAs: x.GroupAs}
		}
	case *SumBy:
		if c := fn(x.E, nil); c != x.E {
			return &SumBy{E: c, Keys: x.Keys, Values: x.Values}
		}
	case *NewLabel:
		if fs, changed := mapNamed(x.Capture, fn); changed {
			return &NewLabel{Site: x.Site, Capture: fs}
		}
	case *MatchLabel:
		if l, b := fn(x.Label, nil), fn(x.Body, x.Params); l != x.Label || b != x.Body {
			return &MatchLabel{Label: l, Site: x.Site, Params: x.Params, ParamTypes: x.ParamTypes, Body: b}
		}
	case *Lambda:
		if b := fn(x.Body, []string{x.Param}); b != x.Body {
			return &Lambda{Param: x.Param, Body: b}
		}
	case *Lookup:
		if d, l := fn(x.Dict, nil), fn(x.Label, nil); d != x.Dict || l != x.Label {
			return &Lookup{Dict: d, Label: l}
		}
	case *MatLookup:
		if d, l := fn(x.Dict, nil), fn(x.Label, nil); d != x.Dict || l != x.Label {
			return &MatLookup{Dict: d, Label: l}
		}
	default:
		panic(fmt.Sprintf("nrc MapScoped: unknown expression %T", e))
	}
	return e
}

// mapNamed applies fn to the expression of every field, reporting whether any
// changed; the fields come back fresh only then.
func mapNamed(fs []NamedExpr, fn func(Expr, []string) Expr) ([]NamedExpr, bool) {
	var out []NamedExpr
	for i, f := range fs {
		c := fn(f.Expr, nil)
		if c != f.Expr && out == nil {
			out = slices.Clone(fs)
		}
		if out != nil {
			out[i].Expr = c
		}
	}
	return out, out != nil
}
