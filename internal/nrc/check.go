package nrc

import (
	"errors"
	"fmt"

	"github.com/trance-go/trance/internal/value"
)

// ExprError attaches the AST node at which type checking failed. Check wraps
// every error in one (tagging the innermost failing node), so layers that
// know source positions for nodes — internal/parse keeps a position map for
// parsed queries — can render caret diagnostics for type errors too. The
// message is unchanged; extract the node with errors.As.
type ExprError struct {
	Node Expr
	Err  error
}

func (e *ExprError) Error() string { return e.Err.Error() }

func (e *ExprError) Unwrap() error { return e.Err }

// Env maps names (inputs and prior assignments) to types.
type Env map[string]Type

// Check type-checks e against env, annotates every node with its type, and
// returns the root type.
//
// A node holds one type, so it may appear in several places of e only where
// it types the same in each: one *Var used under two binders of different
// types would be read by Eval through the type of the last one checked.
// Check refuses such a variable with an ExprError naming it. (A shared node
// of any other kind types apart only through a variable it holds, which is
// then shared too.)
func Check(e Expr, env Env) (Type, error) {
	c := &checker{vars: map[*Var]Type{}}
	c.push()
	for k, v := range env {
		c.bind(k, v)
	}
	return c.check(e)
}

// CheckProgram checks each assignment in order, extending the environment
// with assignment results, and returns the type of every statement.
func CheckProgram(p *Program, env Env) (map[string]Type, error) {
	scope := Env{}
	for k, v := range env {
		scope[k] = v
	}
	out := map[string]Type{}
	for _, st := range p.Stmts {
		t, err := Check(st.Expr, scope)
		if err != nil {
			return nil, fmt.Errorf("assignment %s: %w", st.Name, err)
		}
		scope[st.Name] = t
		out[st.Name] = t
	}
	return out, nil
}

type checker struct {
	scopes []map[string]Type
	// vars is the type each variable node checked so far was given.
	vars map[*Var]Type
}

func (c *checker) push()                    { c.scopes = append(c.scopes, map[string]Type{}) }
func (c *checker) pop()                     { c.scopes = c.scopes[:len(c.scopes)-1] }
func (c *checker) bind(name string, t Type) { c.scopes[len(c.scopes)-1][name] = t }
func (c *checker) lookup(name string) (Type, bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if t, ok := c.scopes[i][name]; ok {
			return t, true
		}
	}
	return nil, false
}

func (c *checker) check(e Expr) (Type, error) {
	t, err := c.checkInner(e)
	if err != nil {
		// Tag the innermost failing node only: recursive calls come back
		// already wrapped, and the deepest node gives the sharpest position.
		var xe *ExprError
		if !errors.As(err, &xe) {
			err = &ExprError{Node: e, Err: err}
		}
		return nil, err
	}
	if v, ok := e.(*Var); ok {
		if prev, ok := c.vars[v]; ok && !TypesEqual(prev, t) {
			return nil, &ExprError{Node: e, Err: fmt.Errorf("one node of variable %s is used as %s and as %s: give each use its own node", v.Name, prev, t)}
		}
		c.vars[v] = t
	}
	e.setType(t)
	return t, nil
}

func (c *checker) checkInner(e Expr) (Type, error) {
	switch x := e.(type) {
	case *Const:
		switch x.Val.(type) {
		case int64:
			return IntT, nil
		case float64:
			return RealT, nil
		case string:
			return StringT, nil
		case bool:
			return BoolT, nil
		case value.Date:
			return DateT, nil
		}
		return nil, fmt.Errorf("constant of unsupported type %T", x.Val)

	case *Var:
		t, ok := c.lookup(x.Name)
		if !ok {
			return nil, fmt.Errorf("unbound variable %q", x.Name)
		}
		return t, nil

	case *Proj:
		tt, err := c.check(x.Tuple)
		if err != nil {
			return nil, err
		}
		tup, ok := tt.(TupleType)
		if !ok {
			return nil, fmt.Errorf("projection .%s on non-tuple %s", x.Field, tt)
		}
		ft := tup.Lookup(x.Field)
		if ft == nil {
			return nil, fmt.Errorf("no field %q in %s", x.Field, tup)
		}
		return ft, nil

	case *TupleCtor:
		fs := make([]Field, len(x.Fields))
		for i, f := range x.Fields {
			ft, err := c.check(f.Expr)
			if err != nil {
				return nil, err
			}
			fs[i] = Field{Name: f.Name, Type: ft}
		}
		return TupleType{Fields: fs}, nil

	case *Sing:
		et, err := c.check(x.Elem)
		if err != nil {
			return nil, err
		}
		return BagType{Elem: et}, nil

	case *Empty:
		return BagType{Elem: x.ElemType}, nil

	case *Get:
		bt, err := c.check(x.Bag)
		if err != nil {
			return nil, err
		}
		b, ok := bt.(BagType)
		if !ok {
			return nil, fmt.Errorf("get on non-bag %s", bt)
		}
		return b.Elem, nil

	case *For:
		st, err := c.check(x.Source)
		if err != nil {
			return nil, err
		}
		b, ok := st.(BagType)
		if !ok {
			return nil, fmt.Errorf("for %s: source is not a bag: %s", x.Var, st)
		}
		c.push()
		c.bind(x.Var, b.Elem)
		bt, err := c.check(x.Body)
		c.pop()
		if err != nil {
			return nil, err
		}
		if _, ok := bt.(BagType); !ok {
			return nil, fmt.Errorf("for %s: body is not a bag: %s", x.Var, bt)
		}
		return bt, nil

	case *Union:
		lt, err := c.check(x.L)
		if err != nil {
			return nil, err
		}
		rt, err := c.check(x.R)
		if err != nil {
			return nil, err
		}
		if !TypesEqual(lt, rt) {
			return nil, fmt.Errorf("union of unequal types %s vs %s", lt, rt)
		}
		if _, ok := lt.(BagType); !ok {
			return nil, fmt.Errorf("union of non-bags %s", lt)
		}
		return lt, nil

	case *Let:
		vt, err := c.check(x.Val)
		if err != nil {
			return nil, err
		}
		c.push()
		c.bind(x.Var, vt)
		bt, err := c.check(x.Body)
		c.pop()
		return bt, err

	case *If:
		ct, err := c.check(x.Cond)
		if err != nil {
			return nil, err
		}
		if !TypesEqual(ct, BoolT) {
			return nil, fmt.Errorf("if condition is %s, not bool", ct)
		}
		tt, err := c.check(x.Then)
		if err != nil {
			return nil, err
		}
		if x.Else == nil {
			if _, ok := tt.(BagType); !ok {
				return nil, fmt.Errorf("if-then without else must be bag-typed, got %s", tt)
			}
			return tt, nil
		}
		et, err := c.check(x.Else)
		if err != nil {
			return nil, err
		}
		if !TypesEqual(tt, et) {
			return nil, fmt.Errorf("if branches differ: %s vs %s", tt, et)
		}
		return tt, nil

	case *Cmp:
		lt, err := c.check(x.L)
		if err != nil {
			return nil, err
		}
		rt, err := c.check(x.R)
		if err != nil {
			return nil, err
		}
		if !comparable(lt, rt) {
			return nil, fmt.Errorf("cannot compare %s %s %s", lt, x.Op, rt)
		}
		return BoolT, nil

	case *Arith:
		lt, err := c.check(x.L)
		if err != nil {
			return nil, err
		}
		rt, err := c.check(x.R)
		if err != nil {
			return nil, err
		}
		ln, lr := numeric(lt)
		rn, rr := numeric(rt)
		if !ln || !rn {
			return nil, fmt.Errorf("arithmetic %s on %s and %s", x.Op, lt, rt)
		}
		if lr || rr || x.Op == Div {
			return RealT, nil
		}
		return IntT, nil

	case *Not:
		t, err := c.check(x.E)
		if err != nil {
			return nil, err
		}
		if !TypesEqual(t, BoolT) {
			return nil, fmt.Errorf("not on %s", t)
		}
		return BoolT, nil

	case *BoolBin:
		lt, err := c.check(x.L)
		if err != nil {
			return nil, err
		}
		rt, err := c.check(x.R)
		if err != nil {
			return nil, err
		}
		if !TypesEqual(lt, BoolT) || !TypesEqual(rt, BoolT) {
			return nil, fmt.Errorf("boolean op on %s and %s", lt, rt)
		}
		return BoolT, nil

	case *Dedup:
		t, err := c.check(x.E)
		if err != nil {
			return nil, err
		}
		if !IsFlatBag(t) {
			return nil, fmt.Errorf("dedup requires a flat bag, got %s", t)
		}
		return t, nil

	case *GroupBy:
		t, err := c.check(x.E)
		if err != nil {
			return nil, err
		}
		tup, err := bagOfTuples(t, "groupBy")
		if err != nil {
			return nil, err
		}
		var keyFields, rest []Field
		for _, f := range tup.Fields {
			if contains(x.Keys, f.Name) {
				if !flatKey(f.Type) {
					return nil, fmt.Errorf("groupBy key %s is not flat: %s", f.Name, f.Type)
				}
				keyFields = append(keyFields, f)
			} else {
				rest = append(rest, f)
			}
		}
		if len(keyFields) != len(x.Keys) {
			return nil, fmt.Errorf("groupBy keys %v not all present in %s", x.Keys, tup)
		}
		out := append(append([]Field{}, keyFields...),
			Field{Name: x.GroupAs, Type: BagType{Elem: TupleType{Fields: rest}}})
		return BagType{Elem: TupleType{Fields: out}}, nil

	case *SumBy:
		t, err := c.check(x.E)
		if err != nil {
			return nil, err
		}
		tup, err := bagOfTuples(t, "sumBy")
		if err != nil {
			return nil, err
		}
		var out []Field
		for _, k := range x.Keys {
			ft := tup.Lookup(k)
			if ft == nil {
				return nil, fmt.Errorf("sumBy key %s missing in %s", k, tup)
			}
			if !flatKey(ft) {
				return nil, fmt.Errorf("sumBy key %s is not flat: %s", k, ft)
			}
			out = append(out, Field{Name: k, Type: ft})
		}
		for _, v := range x.Values {
			ft := tup.Lookup(v)
			if ft == nil {
				return nil, fmt.Errorf("sumBy value %s missing in %s", v, tup)
			}
			if n, _ := numeric(ft); !n {
				return nil, fmt.Errorf("sumBy value %s is not numeric: %s", v, ft)
			}
			out = append(out, Field{Name: v, Type: ft})
		}
		return BagType{Elem: TupleType{Fields: out}}, nil

	case *NewLabel:
		for _, f := range x.Capture {
			if _, err := c.check(f.Expr); err != nil {
				return nil, err
			}
		}
		return LabelT, nil

	case *MatchLabel:
		lt, err := c.check(x.Label)
		if err != nil {
			return nil, err
		}
		if !TypesEqual(lt, LabelT) {
			return nil, fmt.Errorf("match on non-label %s", lt)
		}
		if len(x.Params) != len(x.ParamTypes) {
			return nil, fmt.Errorf("match: %d params, %d types", len(x.Params), len(x.ParamTypes))
		}
		c.push()
		for i, p := range x.Params {
			c.bind(p, x.ParamTypes[i])
		}
		bt, err := c.check(x.Body)
		c.pop()
		return bt, err

	case *Lambda:
		c.push()
		c.bind(x.Param, LabelT)
		bt, err := c.check(x.Body)
		c.pop()
		if err != nil {
			return nil, err
		}
		b, ok := bt.(BagType)
		if !ok {
			return nil, fmt.Errorf("dictionary body must be a bag, got %s", bt)
		}
		elem, ok := b.Elem.(TupleType)
		if !ok {
			elem = TupleType{Fields: []Field{{Name: "_1", Type: b.Elem}}}
		}
		return DictType{Elem: elem}, nil

	case *Lookup:
		dt, err := c.check(x.Dict)
		if err != nil {
			return nil, err
		}
		d, ok := dt.(DictType)
		if !ok {
			return nil, fmt.Errorf("lookup on non-dictionary %s", dt)
		}
		lt, err := c.check(x.Label)
		if err != nil {
			return nil, err
		}
		if !TypesEqual(lt, LabelT) {
			return nil, fmt.Errorf("lookup with non-label key %s", lt)
		}
		return BagType{Elem: d.Elem}, nil

	case *MatLookup:
		dt, err := c.check(x.Dict)
		if err != nil {
			return nil, err
		}
		tup, err := bagOfTuples(dt, "matLookup")
		if err != nil {
			return nil, err
		}
		if len(tup.Fields) == 0 || !TypesEqual(tup.Fields[0].Type, LabelT) {
			return nil, fmt.Errorf("matLookup dictionary must start with a label column: %s", tup)
		}
		lt, err := c.check(x.Label)
		if err != nil {
			return nil, err
		}
		if !TypesEqual(lt, LabelT) {
			return nil, fmt.Errorf("matLookup with non-label key %s", lt)
		}
		return BagType{Elem: TupleType{Fields: tup.Fields[1:]}}, nil
	}
	return nil, fmt.Errorf("nrc: unknown expression %T", e)
}

func bagOfTuples(t Type, op string) (TupleType, error) {
	b, ok := t.(BagType)
	if !ok {
		return TupleType{}, fmt.Errorf("%s on non-bag %s", op, t)
	}
	tup, ok := b.Elem.(TupleType)
	if !ok {
		return TupleType{}, fmt.Errorf("%s on bag of non-tuples %s", op, t)
	}
	return tup, nil
}

func comparable(a, b Type) bool {
	if an, _ := numeric(a); an {
		if bn, _ := numeric(b); bn {
			return true
		}
	}
	return TypesEqual(a, b) && (IsScalar(a) || TypesEqual(a, LabelT))
}

func numeric(t Type) (isNumeric, isReal bool) {
	s, ok := t.(ScalarType)
	if !ok {
		return false, false
	}
	switch s.Kind {
	case Int:
		return true, false
	case Real:
		return true, true
	}
	return false, false
}

func flatKey(t Type) bool {
	switch t.(type) {
	case ScalarType, LabelType:
		return true
	}
	return false
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
