// Package plan defines the algebraic plan language of the paper (Section 2):
// selection, projection, equi-join and left outer join, unnest and outer
// unnest, the nest operators Γ⊎ and Γ+, dedup, union, and BagToDict — plus a
// scalar expression IR evaluated per row. The unnesting stage (internal/core)
// produces plans in this language; internal/exec binds them to the dataflow
// engine.
package plan

import (
	"fmt"
	"strings"

	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/value"
)

// Row is an engine row.
type Row = value.Tuple

// Expr is a scalar expression evaluated against a row. NULL propagates
// through arithmetic; comparisons involving NULL are false.
type Expr interface {
	Eval(Row) value.Value
	Type() nrc.Type
	String() string
}

// Col references a column by position.
type Col struct {
	Idx  int
	Name string
	Typ  nrc.Type
}

func (c *Col) Eval(r Row) value.Value { return r[c.Idx] }
func (c *Col) Type() nrc.Type         { return c.Typ }
func (c *Col) String() string         { return fmt.Sprintf("$%d:%s", c.Idx, c.Name) }

// ConstE is a literal.
type ConstE struct {
	Val value.Value
	Typ nrc.Type
}

func (c *ConstE) Eval(Row) value.Value { return c.Val }
func (c *ConstE) Type() nrc.Type       { return c.Typ }
func (c *ConstE) String() string       { return fmt.Sprintf("%v", c.Val) }

// CmpE compares two scalars; NULL operands yield false.
type CmpE struct {
	Op   nrc.CmpOp
	L, R Expr
}

func (e *CmpE) Eval(r Row) value.Value {
	l, rr := e.L.Eval(r), e.R.Eval(r)
	if l == nil || rr == nil {
		return false
	}
	c := value.Compare(l, rr)
	switch e.Op {
	case nrc.Eq:
		return c == 0
	case nrc.Ne:
		return c != 0
	case nrc.Lt:
		return c < 0
	case nrc.Le:
		return c <= 0
	case nrc.Gt:
		return c > 0
	default:
		return c >= 0
	}
}
func (e *CmpE) Type() nrc.Type { return nrc.BoolT }
func (e *CmpE) String() string { return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R) }

// ArithE applies a scalar primitive with NULL propagation.
type ArithE struct {
	Op   nrc.ArithOp
	L, R Expr
	Typ  nrc.Type
}

func (e *ArithE) Eval(r Row) value.Value { return nrc.EvalArith(e.Op, e.L.Eval(r), e.R.Eval(r)) }
func (e *ArithE) Type() nrc.Type         { return e.Typ }
func (e *ArithE) String() string         { return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R) }

// NotE negates a boolean; NULL yields false.
type NotE struct{ E Expr }

func (e *NotE) Eval(r Row) value.Value {
	v := e.E.Eval(r)
	if v == nil {
		return false
	}
	return !v.(bool)
}
func (e *NotE) Type() nrc.Type { return nrc.BoolT }
func (e *NotE) String() string { return fmt.Sprintf("¬%s", e.E) }

// BoolE is && or || with NULL treated as false.
type BoolE struct {
	And  bool
	L, R Expr
}

func (e *BoolE) Eval(r Row) value.Value {
	l, _ := e.L.Eval(r).(bool)
	if e.And {
		if !l {
			return false
		}
		rv, _ := e.R.Eval(r).(bool)
		return rv
	}
	if l {
		return true
	}
	rv, _ := e.R.Eval(r).(bool)
	return rv
}
func (e *BoolE) Type() nrc.Type { return nrc.BoolT }
func (e *BoolE) String() string {
	op := "||"
	if e.And {
		op = "&&"
	}
	return fmt.Sprintf("(%s %s %s)", e.L, op, e.R)
}

// MkTuple builds a tuple value from sub-expressions.
type MkTuple struct {
	Names []string
	Exprs []Expr
}

func (e *MkTuple) Eval(r Row) value.Value {
	out := make(value.Tuple, len(e.Exprs))
	for i, sub := range e.Exprs {
		out[i] = sub.Eval(r)
	}
	return out
}

func (e *MkTuple) Type() nrc.Type {
	fs := make([]nrc.Field, len(e.Exprs))
	for i := range e.Exprs {
		fs[i] = nrc.Field{Name: e.Names[i], Type: e.Exprs[i].Type()}
	}
	return nrc.TupleType{Fields: fs}
}
func (e *MkTuple) String() string { return fmt.Sprintf("tuple%v", e.Names) }

// MkLabel constructs a shredding label at a NewLabel occurrence. The
// label-reuse refinement of value.NewLabel applies.
type MkLabel struct {
	Site int32
	Args []Expr
}

func (e *MkLabel) Eval(r Row) value.Value {
	if len(e.Args) == 1 {
		v := e.Args[0].Eval(r)
		if _, ok := v.(value.Label); ok {
			return v // value.NewLabel's identity relabeling, with no payload or box to build
		}
		return value.NewLabel(e.Site, v)
	}
	payload := make([]value.Value, len(e.Args))
	for i, a := range e.Args {
		payload[i] = a.Eval(r)
	}
	return value.NewLabel(e.Site, payload...)
}
func (e *MkLabel) Type() nrc.Type { return nrc.LabelT }
func (e *MkLabel) String() string { return fmt.Sprintf("label#%d/%d", e.Site, len(e.Args)) }

// LabelField destructures a label payload (the match-label construct). On a
// label from a different site it yields the label itself when the match has a
// single label-typed parameter (the label-reuse refinement), NULL otherwise.
type LabelField struct {
	E       Expr
	Site    int32
	Idx     int
	NParams int
	Typ     nrc.Type
}

func (e *LabelField) Eval(r Row) value.Value {
	v := e.E.Eval(r)
	if v == nil {
		return nil
	}
	l, ok := v.(value.Label)
	if !ok {
		return nil
	}
	if l.Site == e.Site {
		if e.Idx < len(l.Payload) {
			return l.Payload[e.Idx]
		}
		return nil
	}
	if e.NParams == 1 && nrc.TypesEqual(e.Typ, nrc.LabelT) {
		return l
	}
	return nil
}
func (e *LabelField) Type() nrc.Type { return e.Typ }
func (e *LabelField) String() string { return fmt.Sprintf("%s#%d[%d]", e.E, e.Site, e.Idx) }

// CastNullBag turns NULL into the empty bag — the final NULL cast applied at
// output boundaries for bag-typed columns (paper Section 2: Γ casts NULLs).
type CastNullBag struct{ E Expr }

func (e *CastNullBag) Eval(r Row) value.Value {
	v := e.E.Eval(r)
	if v == nil {
		return value.Bag{}
	}
	return v
}
func (e *CastNullBag) Type() nrc.Type { return e.E.Type() }
func (e *CastNullBag) String() string { return fmt.Sprintf("castBag(%s)", e.E) }

// ExprCols appends the column indexes referenced by e to out.
func ExprCols(e Expr, out []int) []int {
	if c, ok := e.(*Col); ok {
		return append(out, c.Idx)
	}
	mapExpr(e, func(s Expr) Expr {
		out = ExprCols(s, out)
		return s
	})
	return out
}

// substCols rewrites column references through fn, rebuilding the tree above
// every column fn replaced.
func substCols(e Expr, fn func(*Col) Expr) Expr {
	if c, ok := e.(*Col); ok {
		return fn(c)
	}
	return mapExpr(e, func(s Expr) Expr { return substCols(s, fn) })
}

// mapExpr rebuilds e with fn applied to every direct sub-expression, in
// order: the one place that knows the children of a scalar expression. An
// expression whose children fn all returned unchanged comes back as it is, so
// a walk that only reads allocates nothing.
func mapExpr(e Expr, fn func(Expr) Expr) Expr {
	switch x := e.(type) {
	case *Col, *ConstE:
	case *CmpE:
		if l, r := fn(x.L), fn(x.R); l != x.L || r != x.R {
			return &CmpE{Op: x.Op, L: l, R: r}
		}
	case *ArithE:
		if l, r := fn(x.L), fn(x.R); l != x.L || r != x.R {
			return &ArithE{Op: x.Op, L: l, R: r, Typ: x.Typ}
		}
	case *NotE:
		if s := fn(x.E); s != x.E {
			return &NotE{E: s}
		}
	case *BoolE:
		if l, r := fn(x.L), fn(x.R); l != x.L || r != x.R {
			return &BoolE{And: x.And, L: l, R: r}
		}
	case *MkTuple:
		if es, changed := mapExprs(x.Exprs, fn); changed {
			return &MkTuple{Names: x.Names, Exprs: es}
		}
	case *MkLabel:
		if es, changed := mapExprs(x.Args, fn); changed {
			return &MkLabel{Site: x.Site, Args: es}
		}
	case *LabelField:
		if s := fn(x.E); s != x.E {
			return &LabelField{E: s, Site: x.Site, Idx: x.Idx, NParams: x.NParams, Typ: x.Typ}
		}
	case *CastNullBag:
		if s := fn(x.E); s != x.E {
			return &CastNullBag{E: s}
		}
	default:
		panic(fmt.Sprintf("plan: unknown expr %T", e))
	}
	return e
}

// mapExprs applies fn to every expression of es, returning a fresh slice only
// when some expression changed.
func mapExprs(es []Expr, fn func(Expr) Expr) ([]Expr, bool) {
	var out []Expr
	for i, s := range es {
		if c := fn(s); c != s || out != nil {
			if out == nil {
				out = append(make([]Expr, 0, len(es)), es[:i]...)
			}
			out = append(out, c)
		}
	}
	return out, out != nil
}

// RemapExpr rewrites column references through a position map; the map must
// cover every referenced column.
func RemapExpr(e Expr, remap map[int]int) Expr {
	return substCols(e, func(c *Col) Expr {
		n, ok := remap[c.Idx]
		if !ok {
			panic(fmt.Sprintf("plan: remap missing column %d (%s)", c.Idx, c.Name))
		}
		return &Col{Idx: n, Name: c.Name, Typ: c.Typ}
	})
}

// NamedExpr pairs an output column name with its defining expression.
type NamedExpr struct {
	Name string
	Expr Expr
}

func namedExprString(nes []NamedExpr) string {
	parts := make([]string, len(nes))
	for i, ne := range nes {
		parts[i] = ne.Name + "=" + ne.Expr.String()
	}
	return strings.Join(parts, ", ")
}
