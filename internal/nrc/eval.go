package nrc

import (
	"fmt"

	"github.com/trance-go/trance/internal/value"
)

// Scope is a linked environment of variable bindings for the local evaluator.
type Scope struct {
	name   string
	val    value.Value
	parent *Scope
}

// Bind extends the scope. The zero receiver is the empty scope.
func (s *Scope) Bind(name string, v value.Value) *Scope {
	return &Scope{name: name, val: v, parent: s}
}

func (s *Scope) lookup(name string) (value.Value, bool) {
	for cur := s; cur != nil; cur = cur.parent {
		if cur.name == name {
			return cur.val, true
		}
	}
	return nil, false
}

// closure is the runtime representation of a symbolic dictionary (Lambda).
// It only ever appears transiently inside the local evaluator.
type closure struct {
	param string
	body  Expr
	env   *Scope
}

// Eval evaluates a checked expression under the given bindings. It is the
// tuple-at-a-time reference semantics of NRC — the "local program" of the
// paper's introduction — and serves as the oracle for all distributed
// strategies. Eval panics on ill-typed trees; run Check first.
func Eval(e Expr, env *Scope) value.Value {
	switch x := e.(type) {
	case *Const:
		return x.Val

	case *Var:
		v, ok := env.lookup(x.Name)
		if !ok {
			panic(fmt.Sprintf("nrc eval: unbound variable %q", x.Name))
		}
		return v

	case *Proj:
		t := Eval(x.Tuple, env).(value.Tuple)
		tt := x.Tuple.Type().(TupleType)
		i := tt.Index(x.Field)
		if i < 0 {
			panic("nrc eval: missing field " + x.Field)
		}
		return t[i]

	case *TupleCtor:
		out := make(value.Tuple, len(x.Fields))
		for i, f := range x.Fields {
			out[i] = Eval(f.Expr, env)
		}
		return out

	case *Sing:
		return value.Bag{Eval(x.Elem, env)}

	case *Empty:
		return value.Bag{}

	case *Get:
		b := Eval(x.Bag, env).(value.Bag)
		if len(b) == 1 {
			return b[0]
		}
		return ZeroValue(x.Type())

	case *For:
		src := Eval(x.Source, env).(value.Bag)
		var out value.Bag
		for _, elem := range src {
			res := Eval(x.Body, env.Bind(x.Var, elem)).(value.Bag)
			out = append(out, res...)
		}
		if out == nil {
			out = value.Bag{}
		}
		return out

	case *Union:
		l := Eval(x.L, env).(value.Bag)
		r := Eval(x.R, env).(value.Bag)
		out := make(value.Bag, 0, len(l)+len(r))
		out = append(out, l...)
		out = append(out, r...)
		return out

	case *Let:
		return Eval(x.Body, env.Bind(x.Var, Eval(x.Val, env)))

	case *If:
		if Eval(x.Cond, env).(bool) {
			return Eval(x.Then, env)
		}
		if x.Else != nil {
			return Eval(x.Else, env)
		}
		return value.Bag{}

	case *Cmp:
		l, r := Eval(x.L, env), Eval(x.R, env)
		c := value.Compare(l, r)
		switch x.Op {
		case Eq:
			return c == 0
		case Ne:
			return c != 0
		case Lt:
			return c < 0
		case Le:
			return c <= 0
		case Gt:
			return c > 0
		case Ge:
			return c >= 0
		}
		panic("nrc eval: bad cmp op")

	case *Arith:
		return EvalArith(x.Op, Eval(x.L, env), Eval(x.R, env))

	case *Not:
		return !Eval(x.E, env).(bool)

	case *BoolBin:
		l := Eval(x.L, env).(bool)
		if x.And {
			return l && Eval(x.R, env).(bool)
		}
		return l || Eval(x.R, env).(bool)

	case *Dedup:
		b := Eval(x.E, env).(value.Bag)
		seen := map[string]bool{}
		out := make(value.Bag, 0, len(b))
		for _, elem := range b {
			k := value.Key(elem)
			if !seen[k] {
				seen[k] = true
				out = append(out, elem)
			}
		}
		return out

	case *GroupBy:
		b := Eval(x.E, env).(value.Bag)
		tup := x.E.Type().(BagType).Elem.(TupleType)
		keyIdx, restIdx := splitIdx(tup, x.Keys)
		groups := map[string]*value.Tuple{}
		var order []string
		for _, elem := range b {
			t := elem.(value.Tuple)
			k := keyOf(t, keyIdx)
			g, ok := groups[k]
			if !ok {
				nt := make(value.Tuple, len(keyIdx)+1)
				for i, ki := range keyIdx {
					nt[i] = t[ki]
				}
				nt[len(keyIdx)] = value.Bag{}
				groups[k] = &nt
				g = &nt
				order = append(order, k)
			}
			rest := make(value.Tuple, len(restIdx))
			for i, ri := range restIdx {
				rest[i] = t[ri]
			}
			(*g)[len(keyIdx)] = append((*g)[len(keyIdx)].(value.Bag), rest)
		}
		out := make(value.Bag, 0, len(order))
		for _, k := range order {
			out = append(out, *groups[k])
		}
		return out

	case *SumBy:
		// A NULL value contributes nothing; a real column sums exactly and
		// rounds once per group (value.RealSum), as the engine's Γ+ does.
		b := Eval(x.E, env).(value.Bag)
		tup := x.E.Type().(BagType).Elem.(TupleType)
		keyIdx, _ := splitIdx(tup, x.Keys)
		valIdx := make([]int, len(x.Values))
		isReal := make([]bool, len(x.Values))
		for i, v := range x.Values {
			valIdx[i] = tup.Index(v)
			_, isReal[i] = numeric(tup.Fields[valIdx[i]].Type)
		}
		type group struct {
			row   value.Tuple
			reals []value.RealSum
		}
		groups := map[string]*group{}
		var order []*group
		for _, elem := range b {
			t := elem.(value.Tuple)
			k := keyOf(t, keyIdx)
			g, ok := groups[k]
			if !ok {
				g = &group{row: make(value.Tuple, len(keyIdx)+len(valIdx)), reals: make([]value.RealSum, len(valIdx))}
				for i, ki := range keyIdx {
					g.row[i] = t[ki]
				}
				for i, vi := range valIdx {
					g.row[len(keyIdx)+i] = ZeroValue(tup.Fields[vi].Type)
				}
				groups[k] = g
				order = append(order, g)
			}
			for i, vi := range valIdx {
				switch v := t[vi]; {
				case v == nil:
				case isReal[i]:
					g.reals[i].Add(toFloat(v))
				default:
					g.row[len(keyIdx)+i] = EvalArith(Add, g.row[len(keyIdx)+i], v)
				}
			}
		}
		out := make(value.Bag, len(order))
		for j, g := range order {
			for i := range valIdx {
				if isReal[i] {
					g.row[len(keyIdx)+i] = g.reals[i].Float64()
				}
			}
			out[j] = g.row
		}
		return out

	case *NewLabel:
		payload := make([]value.Value, len(x.Capture))
		for i, f := range x.Capture {
			payload[i] = Eval(f.Expr, env)
		}
		return value.NewLabel(x.Site, payload...)

	case *MatchLabel:
		l := Eval(x.Label, env).(value.Label)
		inner := env
		switch {
		case l.Site == x.Site:
			for i, p := range x.Params {
				inner = inner.Bind(p, l.Payload[i])
			}
		case len(x.Params) == 1 && TypesEqual(x.ParamTypes[0], LabelT):
			// Label-reuse refinement: a NewLabel over a single label returned
			// it unchanged, so the match binds the label itself.
			inner = inner.Bind(x.Params[0], l)
		default:
			return value.Bag{}
		}
		return Eval(x.Body, inner)

	case *Lambda:
		return closure{param: x.Param, body: x.Body, env: env}

	case *Lookup:
		cl := Eval(x.Dict, env).(closure)
		l := Eval(x.Label, env)
		return Eval(cl.body, cl.env.Bind(cl.param, l))

	case *MatLookup:
		d := Eval(x.Dict, env).(value.Bag)
		l := Eval(x.Label, env)
		var out value.Bag = value.Bag{}
		for _, elem := range d {
			t := elem.(value.Tuple)
			if value.Equal(t[0], l) {
				out = append(out, t[1:])
			}
		}
		return out
	}
	panic(fmt.Sprintf("nrc eval: unknown expression %T", e))
}

// EvalProgram evaluates every assignment in order and returns the bindings.
func EvalProgram(p *Program, env *Scope) map[string]value.Value {
	out := map[string]value.Value{}
	for _, st := range p.Stmts {
		v := Eval(st.Expr, env)
		env = env.Bind(st.Name, v)
		out[st.Name] = v
	}
	return out
}

// EvalArith applies a scalar primitive with NULL propagation (NULL operands
// yield NULL) — the arithmetic used by the distributed plans as well.
func EvalArith(op ArithOp, l, r value.Value) value.Value {
	if l == nil || r == nil {
		return nil
	}
	li, lInt := l.(int64)
	ri, rInt := r.(int64)
	if lInt && rInt && op != Div {
		switch op {
		case Add:
			return li + ri
		case Sub:
			return li - ri
		case Mul:
			return li * ri
		}
	}
	lf := toFloat(l)
	rf := toFloat(r)
	switch op {
	case Add:
		return lf + rf
	case Sub:
		return lf - rf
	case Mul:
		return lf * rf
	case Div:
		if rf == 0 {
			return 0.0
		}
		return lf / rf
	}
	panic("nrc eval: bad arith op")
}

func toFloat(v value.Value) float64 {
	switch x := v.(type) {
	case int64:
		return float64(x)
	case float64:
		return x
	}
	panic(fmt.Sprintf("nrc eval: non-numeric %T", v))
}

// ZeroValue returns the default value of a type: what get() yields on a
// non-singleton bag.
func ZeroValue(t Type) value.Value {
	switch x := t.(type) {
	case ScalarType:
		switch x.Kind {
		case Int:
			return int64(0)
		case Real:
			return 0.0
		case String:
			return ""
		case Bool:
			return false
		case DateK:
			return value.Date(0)
		}
	case LabelType:
		return value.Label{}
	case BagType:
		return value.Bag{}
	case TupleType:
		out := make(value.Tuple, len(x.Fields))
		for i, f := range x.Fields {
			out[i] = ZeroValue(f.Type)
		}
		return out
	}
	panic("nrc: no zero value for " + t.String())
}

func splitIdx(t TupleType, keys []string) (keyIdx, restIdx []int) {
	for i, f := range t.Fields {
		if contains(keys, f.Name) {
			keyIdx = append(keyIdx, i)
		} else {
			restIdx = append(restIdx, i)
		}
	}
	return
}

func keyOf(t value.Tuple, idx []int) string {
	return value.KeyCols(t, idx)
}
