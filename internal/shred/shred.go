package shred

import (
	"fmt"
	"sort"

	"github.com/trance-go/trance/internal/nrc"
)

// DictTree is the dictionary tree e^D of an expression: one entry per
// bag-valued attribute (paper Section 4, Example 3).
type DictTree struct {
	Entries map[string]*DictEntry
}

// DictEntry is one symbolic dictionary: either an input dictionary (MatName
// set, Body nil — already materialized), or a λ-defined output dictionary
// "λl. match l = NewLabel#Site(Params…) then Body". Alts holds the branches
// of a DictTreeUnion.
type DictEntry struct {
	Site    int32
	Params  []nrc.Field
	Body    nrc.Expr
	Child   *DictTree
	MatName string
	Alts    []*DictEntry
	// ElemNames are the flat element field names of the dictionary
	// ("_value" for scalar elements); known upfront for input dictionaries.
	ElemNames []string
}

func emptyTree() *DictTree { return &DictTree{Entries: map[string]*DictEntry{}} }

// shval pairs the flat expression e^F with its dictionary tree e^D.
type shval struct {
	flat nrc.Expr
	dict *DictTree
}

// Shredder performs symbolic query shredding (paper Figure 4). Run Check on
// the expression first: the shredder reads node types.
type Shredder struct {
	sites    int32
	symCount int
	symbols  map[string]*DictEntry // synthetic dictionary variable → entry
	inputs   map[string]*DictTree  // input relation → input dictionary tree
}

// NewShredder builds a shredder for the given input environment. Every input
// is assumed to be provided in shredded form under the MatName convention.
func NewShredder(env nrc.Env) (*Shredder, error) {
	s := &Shredder{symbols: map[string]*DictEntry{}, inputs: map[string]*DictTree{}}
	names := make([]string, 0, len(env))
	for n := range env {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b, ok := env[n].(nrc.BagType)
		if !ok {
			return nil, fmt.Errorf("shred: input %s is not a bag", n)
		}
		tree, err := inputTree(n, b.Elem, nil)
		if err != nil {
			return nil, err
		}
		s.inputs[n] = tree
	}
	return s, nil
}

func inputTree(input string, elem nrc.Type, path []string) (*DictTree, error) {
	tree := emptyTree()
	tt, ok := elem.(nrc.TupleType)
	if !ok {
		return tree, nil
	}
	for _, f := range tt.Fields {
		b, isBag := f.Type.(nrc.BagType)
		if !isBag {
			continue
		}
		p := append(append([]string{}, path...), f.Name)
		child, err := inputTree(input, b.Elem, p)
		if err != nil {
			return nil, err
		}
		var elemNames []string
		if et, ok := b.Elem.(nrc.TupleType); ok {
			for _, ef := range et.Fields {
				elemNames = append(elemNames, ef.Name)
			}
		} else {
			elemNames = []string{"_value"}
		}
		tree.Entries[f.Name] = &DictEntry{MatName: MatName(input, p), Child: child, ElemNames: elemNames}
	}
	return tree, nil
}

func (s *Shredder) nextSite() int32 {
	s.sites++
	return s.sites
}

func (s *Shredder) symRef(e *DictEntry) *nrc.Var {
	s.symCount++
	name := fmt.Sprintf("δ%d", s.symCount)
	s.symbols[name] = e
	return &nrc.Var{Name: name}
}

// env maps bound variables to the dictionary trees of their element types.
type env map[string]*DictTree

func (e env) with(name string, t *DictTree) env {
	out := make(env, len(e)+1)
	for k, v := range e {
		out[k] = v
	}
	out[name] = t
	return out
}

// Shred computes (e^F, e^D) for a checked, let-free expression.
func (s *Shredder) Shred(e nrc.Expr) (nrc.Expr, *DictTree, error) {
	v, err := s.shred(e, env{})
	if err != nil {
		return nil, nil, err
	}
	return v.flat, v.dict, nil
}

func (s *Shredder) shred(e nrc.Expr, en env) (shval, error) {
	switch x := e.(type) {
	case *nrc.Const:
		return shval{flat: nrc.Copy(e), dict: emptyTree()}, nil

	case *nrc.Var:
		if tree, isInput := s.inputs[x.Name]; isInput {
			v := &nrc.Var{Name: MatName(x.Name, nil)}
			nrc.SetType(v, shredFlatType(x.Type()))
			return shval{flat: v, dict: tree}, nil
		}
		tree, ok := en[x.Name]
		if !ok {
			tree = emptyTree()
		}
		v := &nrc.Var{Name: x.Name}
		nrc.SetType(v, shredFlatType(x.Type()))
		return shval{flat: v, dict: tree}, nil

	case *nrc.Proj:
		sub, err := s.shred(x.Tuple, en)
		if err != nil {
			return shval{}, err
		}
		if _, isBag := x.Type().(nrc.BagType); isBag {
			entry, ok := sub.dict.Entries[x.Field]
			if !ok {
				return shval{}, fmt.Errorf("shred: no dictionary for attribute %s", x.Field)
			}
			lblProj := &nrc.Proj{Tuple: sub.flat, Field: x.Field}
			nrc.SetType(lblProj, nrc.LabelT)
			lookup := &nrc.Lookup{Dict: s.symRef(entry), Label: lblProj}
			child := entry.Child
			if child == nil {
				child = emptyTree()
			}
			return shval{flat: lookup, dict: child}, nil
		}
		p := &nrc.Proj{Tuple: sub.flat, Field: x.Field}
		nrc.SetType(p, x.Type())
		return shval{flat: p, dict: emptyTree()}, nil

	case *nrc.TupleCtor:
		return s.shredTupleCtor(x, en)

	case *nrc.Sing:
		sub, err := s.shred(x.Elem, en)
		if err != nil {
			return shval{}, err
		}
		return shval{flat: &nrc.Sing{Elem: sub.flat}, dict: sub.dict}, nil

	case *nrc.Empty:
		if !nrc.IsFlatElem(x.ElemType) {
			return shval{}, fmt.Errorf("shred: empty bag of nested type is not supported")
		}
		return shval{flat: nrc.Copy(e), dict: emptyTree()}, nil

	case *nrc.Get:
		sub, err := s.shred(x.Bag, en)
		if err != nil {
			return shval{}, err
		}
		return shval{flat: &nrc.Get{Bag: sub.flat}, dict: sub.dict}, nil

	case *nrc.For:
		src, err := s.shred(x.Source, en)
		if err != nil {
			return shval{}, err
		}
		body, err := s.shred(x.Body, en.with(x.Var, src.dict))
		if err != nil {
			return shval{}, err
		}
		return shval{
			flat: &nrc.For{Var: x.Var, Source: src.flat, Body: body.flat},
			dict: body.dict,
		}, nil

	case *nrc.Union:
		l, err := s.shred(x.L, en)
		if err != nil {
			return shval{}, err
		}
		r, err := s.shred(x.R, en)
		if err != nil {
			return shval{}, err
		}
		tree, err := unionTrees(l.dict, r.dict)
		if err != nil {
			return shval{}, err
		}
		return shval{flat: &nrc.Union{L: l.flat, R: r.flat}, dict: tree}, nil

	case *nrc.If:
		c, err := s.shred(x.Cond, en)
		if err != nil {
			return shval{}, err
		}
		t, err := s.shred(x.Then, en)
		if err != nil {
			return shval{}, err
		}
		out := &nrc.If{Cond: c.flat, Then: t.flat}
		tree := t.dict
		if x.Else != nil {
			el, err := s.shred(x.Else, en)
			if err != nil {
				return shval{}, err
			}
			out.Else = el.flat
			tree, err = unionTrees(t.dict, el.dict)
			if err != nil {
				return shval{}, err
			}
		}
		return shval{flat: out, dict: tree}, nil

	case *nrc.Cmp:
		l, err := s.shred(x.L, en)
		if err != nil {
			return shval{}, err
		}
		r, err := s.shred(x.R, en)
		if err != nil {
			return shval{}, err
		}
		return shval{flat: &nrc.Cmp{Op: x.Op, L: l.flat, R: r.flat}, dict: emptyTree()}, nil

	case *nrc.Arith:
		l, err := s.shred(x.L, en)
		if err != nil {
			return shval{}, err
		}
		r, err := s.shred(x.R, en)
		if err != nil {
			return shval{}, err
		}
		return shval{flat: &nrc.Arith{Op: x.Op, L: l.flat, R: r.flat}, dict: emptyTree()}, nil

	case *nrc.Not:
		sub, err := s.shred(x.E, en)
		if err != nil {
			return shval{}, err
		}
		return shval{flat: &nrc.Not{E: sub.flat}, dict: emptyTree()}, nil

	case *nrc.BoolBin:
		l, err := s.shred(x.L, en)
		if err != nil {
			return shval{}, err
		}
		r, err := s.shred(x.R, en)
		if err != nil {
			return shval{}, err
		}
		return shval{flat: &nrc.BoolBin{And: x.And, L: l.flat, R: r.flat}, dict: emptyTree()}, nil

	case *nrc.Dedup:
		sub, err := s.shred(x.E, en)
		if err != nil {
			return shval{}, err
		}
		return shval{flat: &nrc.Dedup{E: sub.flat}, dict: emptyTree()}, nil

	case *nrc.SumBy:
		sub, err := s.shred(x.E, en)
		if err != nil {
			return shval{}, err
		}
		return shval{
			flat: &nrc.SumBy{E: sub.flat, Keys: x.Keys, Values: x.Values},
			dict: emptyTree(),
		}, nil

	case *nrc.GroupBy:
		return shval{}, fmt.Errorf("shred: groupBy is not supported in the shredded route (its nested output attribute would need a dictionary); use tuple-constructor nesting instead")
	}
	return shval{}, fmt.Errorf("shred: unsupported expression %T", e)
}

// shredTupleCtor implements line 3-4 of paper Figure 4: bag-valued attributes
// become NewLabel occurrences capturing the relevant attributes of their free
// variables; their dictionaries become λ-entries of the dictionary tree.
func (s *Shredder) shredTupleCtor(x *nrc.TupleCtor, en env) (shval, error) {
	tree := emptyTree()
	fields := make([]nrc.NamedExpr, len(x.Fields))
	for i, f := range x.Fields {
		if _, isBag := f.Expr.Type().(nrc.BagType); !isBag {
			sub, err := s.shred(f.Expr, en)
			if err != nil {
				return shval{}, err
			}
			fields[i] = nrc.NamedExpr{Name: f.Name, Expr: sub.flat}
			continue
		}
		sub, err := s.shred(f.Expr, en)
		if err != nil {
			return shval{}, err
		}
		caps := captures(sub.flat, en)
		site := s.nextSite()

		// F side: the label capturing the relevant attributes.
		capExprs := make([]nrc.NamedExpr, len(caps))
		params := make([]nrc.Field, len(caps))
		for j, c := range caps {
			capExprs[j] = nrc.NamedExpr{Name: c.param, Expr: c.source}
			params[j] = nrc.Field{Name: c.param, Type: c.typ}
		}
		fields[i] = nrc.NamedExpr{Name: f.Name, Expr: &nrc.NewLabel{Site: site, Capture: capExprs}}

		tree.Entries[f.Name] = &DictEntry{
			Site:   site,
			Params: params,
			Body:   replaceCaptures(sub.flat, caps),
			Child:  sub.dict,
		}
	}
	return shval{flat: &nrc.TupleCtor{Fields: fields}, dict: tree}, nil
}

// capture is one relevant attribute of a free variable at a NewLabel
// occurrence.
type capture struct {
	param  string   // parameter name inside the dictionary body
	source nrc.Expr // the capture expression at the occurrence (x.f or x)
	typ    nrc.Type
	base   string // captured variable
	field  string // captured field, "" for whole variables
}

// captures computes the relevant-attribute capture set of a flat body: every
// field of a bound variable the body uses (and every scalar-bound variable
// used whole). Free input relations and symbolic dictionaries stay free, and
// so does a variable the body binds itself.
func captures(body nrc.Expr, en env) []capture {
	seen := map[string]bool{}
	var out []capture
	add := func(key string, c capture) {
		if !seen[key] {
			seen[key] = true
			out = append(out, c)
		}
	}
	var walk func(e nrc.Expr, shadow map[string]bool)
	walk = func(e nrc.Expr, shadow map[string]bool) {
		switch x := e.(type) {
		case *nrc.Proj:
			if v, ok := x.Tuple.(*nrc.Var); ok && captured(v, en, shadow) {
				add(v.Name+"."+x.Field, capture{
					param:  v.Name + "_" + x.Field,
					source: &nrc.Proj{Tuple: &nrc.Var{Name: v.Name}, Field: x.Field},
					typ:    shredScalarType(x.Type()),
					base:   v.Name,
					field:  x.Field,
				})
				return
			}
		case *nrc.Var:
			if captured(x, en, shadow) {
				add(x.Name, capture{
					param:  x.Name + "_v",
					source: &nrc.Var{Name: x.Name},
					typ:    shredScalarType(x.Type()),
					base:   x.Name,
				})
			}
			return
		}
		nrc.MapScoped(e, func(c nrc.Expr, binds []string) nrc.Expr {
			walk(c, withShadow(shadow, binds))
			return c
		})
	}
	walk(body, nil)
	return out
}

// captured reports whether v refers to a variable of the enclosing scope en
// that no binder inside the body shadows.
func captured(v *nrc.Var, en env, shadow map[string]bool) bool {
	_, bound := en[v.Name]
	return bound && !shadow[v.Name]
}

// withShadow is shadow plus the variables a term binds over a child
// (nrc.MapScoped's binds).
func withShadow(shadow map[string]bool, binds []string) map[string]bool {
	if len(binds) == 0 {
		return shadow
	}
	out := make(map[string]bool, len(shadow)+len(binds))
	for k, v := range shadow {
		out[k] = v
	}
	for _, b := range binds {
		out[b] = true
	}
	return out
}

// replaceCaptures substitutes capture source expressions by their parameter
// variables inside the dictionary body. Rewritten nodes keep the source
// node's stored type (a parameter variable stands for the very value it
// replaces), so later stages — domain-elimination rewrites, the
// materializer's head flattening — can still read element types off the
// body.
func replaceCaptures(body nrc.Expr, caps []capture) nrc.Expr {
	param := func(v *nrc.Var, field string, shadow map[string]bool) nrc.Expr {
		for _, c := range caps {
			if c.base == v.Name && c.field == field && !shadow[v.Name] {
				return &nrc.Var{Name: c.param}
			}
		}
		return nil
	}
	var rewrite func(e nrc.Expr, shadow map[string]bool) nrc.Expr
	rewrite = func(e nrc.Expr, shadow map[string]bool) nrc.Expr {
		var out nrc.Expr
		switch x := e.(type) {
		case *nrc.Proj:
			if v, ok := x.Tuple.(*nrc.Var); ok {
				out = param(v, x.Field, shadow)
			}
		case *nrc.Var:
			out = param(x, "", shadow)
		}
		if out == nil {
			out = nrc.MapScoped(e, func(c nrc.Expr, binds []string) nrc.Expr {
				return rewrite(c, withShadow(shadow, binds))
			})
		}
		if out != nil && out.Type() == nil {
			if t := e.Type(); t != nil {
				nrc.SetType(out, t)
			}
		}
		return out
	}
	return rewrite(body, nil)
}

// unionTrees merges two dictionary trees (the DictTreeUnion construct).
func unionTrees(a, b *DictTree) (*DictTree, error) {
	if a == nil || len(a.Entries) == 0 {
		return b, nil
	}
	if b == nil || len(b.Entries) == 0 {
		return a, nil
	}
	out := emptyTree()
	for k, e := range a.Entries {
		if o, ok := b.Entries[k]; ok {
			out.Entries[k] = &DictEntry{Alts: []*DictEntry{e, o}}
			continue
		}
		out.Entries[k] = e
	}
	for k, e := range b.Entries {
		if _, ok := a.Entries[k]; !ok {
			out.Entries[k] = e
		}
	}
	return out, nil
}
