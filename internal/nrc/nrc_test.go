package nrc_test

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/testdata"
	"github.com/trance-go/trance/internal/value"
)

func mustCheck(t *testing.T, e nrc.Expr, env nrc.Env) nrc.Type {
	t.Helper()
	ty, err := nrc.Check(e, env)
	if err != nil {
		t.Fatalf("check: %v\n%s", err, nrc.Print(e))
	}
	return ty
}

func evalChecked(t *testing.T, e nrc.Expr, env nrc.Env, scope *nrc.Scope) value.Value {
	t.Helper()
	mustCheck(t, e, env)
	return nrc.Eval(e, scope)
}

func TestCheckRunningExample(t *testing.T) {
	q := testdata.RunningExample()
	ty := mustCheck(t, q, testdata.Env())
	want := "Bag(⟨cname: string, corders: Bag(⟨odate: date, oparts: Bag(⟨pname: string, total: real⟩)⟩)⟩)"
	if ty.String() != want {
		t.Fatalf("type:\n got %s\nwant %s", ty, want)
	}
}

func TestEvalRunningExample(t *testing.T) {
	q := testdata.RunningExample()
	got := evalChecked(t, q, testdata.Env(), testdata.Scope())

	// Expected result computed by hand from testdata.SmallCOP/SmallPart:
	// alice order1: bolt 2*2 + 1*2 = 6, nut 4*1.5 = 6; order2: empty.
	// bob order1: washer 10*0.25 = 2.5 (pid 99 unmatched → dropped by sumBy).
	// carol: no orders.
	want := value.Bag{
		value.Tuple{"alice", value.Bag{
			value.Tuple{value.MakeDate(2020, 1, 15), value.Bag{
				value.Tuple{"bolt", 6.0},
				value.Tuple{"nut", 6.0},
			}},
			value.Tuple{value.MakeDate(2020, 3, 2), value.Bag{}},
		}},
		value.Tuple{"bob", value.Bag{
			value.Tuple{value.MakeDate(2019, 11, 30), value.Bag{
				value.Tuple{"washer", 2.5},
			}},
		}},
		value.Tuple{"carol", value.Bag{}},
	}
	if !value.Equal(got, want) {
		t.Fatalf("running example mismatch:\n got %s\nwant %s", value.Format(got), value.Format(want))
	}
}

func TestCheckErrors(t *testing.T) {
	env := testdata.Env()
	cases := []struct {
		name string
		e    nrc.Expr
		want string
	}{
		{"unbound", nrc.V("nope"), "unbound"},
		{"proj-non-tuple", nrc.P(nrc.C(1), "a"), "non-tuple"},
		{"missing-field", nrc.ForIn("c", nrc.V("COP"), nrc.SingOf(nrc.P(nrc.V("c"), "zzz"))), "no field"},
		{"for-non-bag", nrc.ForIn("x", nrc.C(1), nrc.SingOf(nrc.V("x"))), "not a bag"},
		{"if-cond", nrc.IfThen(nrc.C(1), nrc.SingOf(nrc.C(2))), "not bool"},
		{"if-scalar-noelse", nrc.IfThen(nrc.EqOf(nrc.C(1), nrc.C(1)), nrc.C(2)), "bag-typed"},
		{"union-mismatch", nrc.UnionOf(nrc.SingOf(nrc.C(1)), nrc.SingOf(nrc.C("x"))), "unequal"},
		{"arith-string", nrc.AddOf(nrc.C("a"), nrc.C(1)), "arithmetic"},
		{"dedup-nested", nrc.DedupOf(nrc.V("COP")), "flat bag"},
		{"sumby-nonnumeric", nrc.SumByOf(nrc.V("Part"), []string{"pid"}, []string{"pname"}), "not numeric"},
		{"groupby-missing-key", nrc.GroupByOf(nrc.V("Part"), "zzz"), "not all present"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := nrc.Check(c.e, env)
			if err == nil {
				t.Fatalf("expected error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

func TestEvalBasics(t *testing.T) {
	env := nrc.Env{}
	// let x := 3 in if x < 5 then {x*2} else {}
	e := nrc.LetIn("x", nrc.C(3),
		nrc.IfElse(nrc.LtOf(nrc.V("x"), nrc.C(5)),
			nrc.SingOf(nrc.MulOf(nrc.V("x"), nrc.C(2))),
			nrc.EmptyOf(nrc.IntT)))
	got := evalChecked(t, e, env, nil)
	if !value.Equal(got, value.Bag{int64(6)}) {
		t.Fatalf("got %s", value.Format(got))
	}
}

func TestEvalUnionAndEmpty(t *testing.T) {
	e := nrc.UnionOf(nrc.SingOf(nrc.C(1)), nrc.UnionOf(nrc.EmptyOf(nrc.IntT), nrc.SingOf(nrc.C(1))))
	got := evalChecked(t, e, nrc.Env{}, nil)
	if !value.Equal(got, value.Bag{int64(1), int64(1)}) {
		t.Fatalf("union multiplicity wrong: %s", value.Format(got))
	}
}

func TestEvalGet(t *testing.T) {
	one := evalChecked(t, nrc.GetOf(nrc.SingOf(nrc.C(7))), nrc.Env{}, nil)
	if one.(int64) != 7 {
		t.Fatalf("get singleton: %v", one)
	}
	// get on empty yields the default value of the element type.
	zero := evalChecked(t, nrc.GetOf(nrc.EmptyOf(nrc.IntT)), nrc.Env{}, nil)
	if zero.(int64) != 0 {
		t.Fatalf("get empty: %v", zero)
	}
	// get on a 2-element bag also yields the default.
	two := evalChecked(t, nrc.GetOf(nrc.UnionOf(nrc.SingOf(nrc.C(1)), nrc.SingOf(nrc.C(2)))), nrc.Env{}, nil)
	if two.(int64) != 0 {
		t.Fatalf("get non-singleton: %v", two)
	}
}

func TestEvalDedup(t *testing.T) {
	bag := nrc.UnionOf(nrc.SingOf(nrc.C(1)), nrc.UnionOf(nrc.SingOf(nrc.C(1)), nrc.SingOf(nrc.C(2))))
	got := evalChecked(t, nrc.DedupOf(bag), nrc.Env{}, nil)
	if !value.Equal(got, value.Bag{int64(1), int64(2)}) {
		t.Fatalf("dedup: %s", value.Format(got))
	}
}

func TestEvalGroupBy(t *testing.T) {
	env := nrc.Env{"Part": testdata.PartType}
	var s *nrc.Scope
	parts := value.Bag{
		value.Tuple{int64(1), "bolt", 2.0},
		value.Tuple{int64(2), "bolt", 3.0},
		value.Tuple{int64(3), "nut", 1.0},
	}
	s = s.Bind("Part", parts)
	e := nrc.GroupByOf(nrc.V("Part"), "pname")
	got := evalChecked(t, e, env, s).(value.Bag)
	want := value.Bag{
		value.Tuple{"bolt", value.Bag{value.Tuple{int64(1), 2.0}, value.Tuple{int64(2), 3.0}}},
		value.Tuple{"nut", value.Bag{value.Tuple{int64(3), 1.0}}},
	}
	if !value.Equal(got, want) {
		t.Fatalf("groupBy:\n got %s\nwant %s", value.Format(got), value.Format(want))
	}
}

func TestEvalSumByIntAndReal(t *testing.T) {
	elem := nrc.Tup("k", nrc.StringT, "n", nrc.IntT, "x", nrc.RealT)
	env := nrc.Env{"R": nrc.BagOf(elem)}
	var s *nrc.Scope
	s = s.Bind("R", value.Bag{
		value.Tuple{"a", int64(1), 0.5},
		value.Tuple{"a", int64(2), 1.5},
		value.Tuple{"b", int64(5), 2.0},
	})
	e := nrc.SumByOf(nrc.V("R"), []string{"k"}, []string{"n", "x"})
	got := evalChecked(t, e, env, s)
	want := value.Bag{
		value.Tuple{"a", int64(3), 2.0},
		value.Tuple{"b", int64(5), 2.0},
	}
	if !value.Equal(got, want) {
		t.Fatalf("sumBy:\n got %s\nwant %s", value.Format(got), value.Format(want))
	}
}

// TestEvalSumByNullContributesNothing: a NULL value adds nothing to its
// group, and a group of NULLs sums to zero — the rule of the engine's Γ+, not
// EvalArith's NULL propagation.
func TestEvalSumByNullContributesNothing(t *testing.T) {
	env := nrc.Env{"R": nrc.BagOf(nrc.Tup("k", nrc.StringT, "v", nrc.RealT))}
	var s *nrc.Scope
	s = s.Bind("R", value.Bag{
		value.Tuple{"a", 1.5},
		value.Tuple{"a", nil},
		value.Tuple{"a", 2.0},
		value.Tuple{"b", nil},
	})
	got := evalChecked(t, nrc.SumByOf(nrc.V("R"), []string{"k"}, []string{"v"}), env, s)
	want := value.Bag{value.Tuple{"a", 3.5}, value.Tuple{"b", 0.0}}
	if value.Format(got) != value.Format(want) {
		t.Fatalf("sumBy over NULLs:\n got %s\nwant %s", value.Format(got), value.Format(want))
	}
}

// TestEvalSumByRoundsOnce: a real sum is exact and rounded once, so it does
// not depend on the order of its terms.
func TestEvalSumByRoundsOnce(t *testing.T) {
	env := nrc.Env{"R": nrc.BagOf(nrc.Tup("k", nrc.IntT, "v", nrc.RealT))}
	terms := []float64{1e16, 0.5, -1e16, 0.1, 0.1, 0.1}
	for _, order := range [][]int{{0, 1, 2, 3, 4, 5}, {1, 3, 0, 4, 2, 5}, {5, 4, 3, 2, 1, 0}} {
		rows := value.Bag{}
		for _, i := range order {
			rows = append(rows, value.Tuple{int64(1), terms[i]})
		}
		var s *nrc.Scope
		s = s.Bind("R", rows)
		got := evalChecked(t, nrc.SumByOf(nrc.V("R"), []string{"k"}, []string{"v"}), env, s)
		if sum := got.(value.Bag)[0].(value.Tuple)[1].(float64); sum != 0.8 {
			t.Fatalf("order %v: sum %v, want 0.8 (0.5 + 0.1 + 0.1 + 0.1 rounded once)", order, sum)
		}
	}
}

func TestEvalArithNullPropagation(t *testing.T) {
	if nrc.EvalArith(nrc.Add, nil, int64(1)) != nil {
		t.Fatal("NULL + 1 must be NULL")
	}
	if nrc.EvalArith(nrc.Mul, 2.0, nil) != nil {
		t.Fatal("2 * NULL must be NULL")
	}
	if nrc.EvalArith(nrc.Add, int64(2), int64(3)).(int64) != 5 {
		t.Fatal("int add")
	}
	if nrc.EvalArith(nrc.Div, int64(3), int64(2)).(float64) != 1.5 {
		t.Fatal("div promotes to real")
	}
}

func TestMatchLabelAndNewLabel(t *testing.T) {
	// match (NewLabel#3(k=42)) = NewLabel#3(k) then {⟨v := k⟩}
	lbl := &nrc.NewLabel{Site: 3, Capture: []nrc.NamedExpr{{Name: "k", Expr: nrc.C(42)}}}
	m := &nrc.MatchLabel{
		Label:      lbl,
		Site:       3,
		Params:     []string{"k"},
		ParamTypes: []nrc.Type{nrc.IntT},
		Body:       nrc.SingOf(nrc.Record("v", nrc.V("k"))),
	}
	got := evalChecked(t, m, nrc.Env{}, nil)
	want := value.Bag{value.Tuple{int64(42)}}
	if !value.Equal(got, want) {
		t.Fatalf("match: %s", value.Format(got))
	}
	// Site mismatch yields the empty bag.
	m2 := &nrc.MatchLabel{
		Label:      nrc.Copy(lbl),
		Site:       4,
		Params:     []string{"k"},
		ParamTypes: []nrc.Type{nrc.IntT},
		Body:       nrc.SingOf(nrc.Record("v", nrc.V("k"))),
	}
	got2 := evalChecked(t, m2, nrc.Env{}, nil)
	if len(got2.(value.Bag)) != 0 {
		t.Fatalf("mismatched site should be empty, got %s", value.Format(got2))
	}
}

func TestLookupSymbolicDict(t *testing.T) {
	// let d := λl. match l = NewLabel#1(k) then {⟨v := k⟩} in Lookup(d, NewLabel#1(9))
	lam := &nrc.Lambda{Param: "l", Body: &nrc.MatchLabel{
		Label:      nrc.V("l"),
		Site:       1,
		Params:     []string{"k"},
		ParamTypes: []nrc.Type{nrc.IntT},
		Body:       nrc.SingOf(nrc.Record("v", nrc.V("k"))),
	}}
	e := nrc.LetIn("d", lam,
		&nrc.Lookup{Dict: nrc.V("d"), Label: &nrc.NewLabel{Site: 1, Capture: []nrc.NamedExpr{{Name: "k", Expr: nrc.C(9)}}}})
	got := evalChecked(t, e, nrc.Env{}, nil)
	if !value.Equal(got, value.Bag{value.Tuple{int64(9)}}) {
		t.Fatalf("lookup: %s", value.Format(got))
	}
}

func TestMatLookup(t *testing.T) {
	dictT := nrc.BagOf(nrc.Tup("label", nrc.LabelT, "v", nrc.IntT))
	env := nrc.Env{"D": dictT}
	l1 := value.Label{Site: 1, Payload: value.Tuple{int64(1)}}
	l2 := value.Label{Site: 1, Payload: value.Tuple{int64(2)}}
	var s *nrc.Scope
	s = s.Bind("D", value.Bag{
		value.Tuple{l1, int64(10)},
		value.Tuple{l1, int64(11)},
		value.Tuple{l2, int64(20)},
	})
	e := nrc.MatLookupOf(nrc.V("D"), &nrc.NewLabel{Site: 1, Capture: []nrc.NamedExpr{{Name: "k", Expr: nrc.C(1)}}})
	got := evalChecked(t, e, env, s)
	want := value.Bag{value.Tuple{int64(10)}, value.Tuple{int64(11)}}
	if !value.Equal(got, want) {
		t.Fatalf("matLookup: %s", value.Format(got))
	}
}

func TestEvalProgram(t *testing.T) {
	p := &nrc.Program{Stmts: []nrc.Assignment{
		{Name: "A", Expr: nrc.SingOf(nrc.Record("x", nrc.C(1)))},
		{Name: "B", Expr: nrc.ForIn("a", nrc.V("A"), nrc.SingOf(nrc.Record("y", nrc.AddOf(nrc.P(nrc.V("a"), "x"), nrc.C(1)))))},
	}}
	if _, err := nrc.CheckProgram(p, nrc.Env{}); err != nil {
		t.Fatal(err)
	}
	got := nrc.EvalProgram(p, nil)
	if !value.Equal(got["B"], value.Bag{value.Tuple{int64(2)}}) {
		t.Fatalf("program: %s", value.Format(got["B"]))
	}
}

func TestFreeVars(t *testing.T) {
	q := testdata.RunningExample()
	fv := nrc.FreeVars(q)
	if !fv["COP"] || !fv["Part"] || len(fv) != 2 {
		t.Fatalf("free vars: %v", fv)
	}
	// Bound variables must not leak.
	inner := nrc.ForIn("x", nrc.V("R"), nrc.SingOf(nrc.V("x")))
	fv2 := nrc.FreeVars(inner)
	if fv2["x"] || !fv2["R"] {
		t.Fatalf("free vars: %v", fv2)
	}
}

func TestSubstituteShadowing(t *testing.T) {
	// (for x in R union {x}) [R := {x}] — outer x must not capture.
	e := nrc.ForIn("x", nrc.V("R"), nrc.SingOf(nrc.V("x")))
	sub := nrc.Substitute(e, map[string]nrc.Expr{"x": nrc.C(99)})
	f := sub.(*nrc.For)
	if f.Body.(*nrc.Sing).Elem.(*nrc.Var).Name != "x" {
		t.Fatal("bound variable was substituted")
	}
}

func TestInlineLets(t *testing.T) {
	e := nrc.LetIn("x", nrc.C(2), nrc.SingOf(nrc.AddOf(nrc.V("x"), nrc.V("x"))))
	inlined := nrc.InlineLets(e)
	if _, isLet := inlined.(*nrc.Let); isLet {
		t.Fatal("let not eliminated")
	}
	got := evalChecked(t, inlined, nrc.Env{}, nil)
	if !value.Equal(got, value.Bag{int64(4)}) {
		t.Fatalf("inline lets changed semantics: %s", value.Format(got))
	}
}

func TestPrintRoundTripNames(t *testing.T) {
	s := nrc.Print(testdata.RunningExample())
	for _, frag := range []string{"for cop in COP", "sumby[pname; total]", "corders", "op.qty * p.price"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("printer output missing %q:\n%s", frag, s)
		}
	}
}

func TestZeroValue(t *testing.T) {
	tt := nrc.Tup("a", nrc.IntT, "b", nrc.BagOf(nrc.IntT))
	z := nrc.ZeroValue(tt).(value.Tuple)
	if z[0].(int64) != 0 || len(z[1].(value.Bag)) != 0 {
		t.Fatalf("zero: %s", value.Format(z))
	}
}

func TestQuickForUnionCount(t *testing.T) {
	// Property: |for x in R union {f(x)}| == |R| for total f.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(40)
		rows := make(value.Bag, n)
		for i := range rows {
			rows[i] = value.Tuple{int64(r.Intn(10))}
		}
		env := nrc.Env{"R": nrc.BagOf(nrc.Tup("v", nrc.IntT))}
		var s *nrc.Scope
		s = s.Bind("R", rows)
		e := nrc.ForIn("x", nrc.V("R"), nrc.SingOf(nrc.Record("w", nrc.AddOf(nrc.P(nrc.V("x"), "v"), nrc.C(1)))))
		if _, err := nrc.Check(e, env); err != nil {
			return false
		}
		return len(nrc.Eval(e, s).(value.Bag)) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSumByPreservesTotals(t *testing.T) {
	// Property: the grand total of sumBy output equals the input grand total.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(60)
		rows := make(value.Bag, n)
		var want float64
		for i := range rows {
			v := float64(r.Intn(20)) / 2
			rows[i] = value.Tuple{int64(r.Intn(5)), v}
			want += v
		}
		env := nrc.Env{"R": nrc.BagOf(nrc.Tup("k", nrc.IntT, "v", nrc.RealT))}
		var s *nrc.Scope
		s = s.Bind("R", rows)
		e := nrc.SumByOf(nrc.V("R"), []string{"k"}, []string{"v"})
		if _, err := nrc.Check(e, env); err != nil {
			return false
		}
		var got float64
		for _, t := range nrc.Eval(e, s).(value.Bag) {
			got += t.(value.Tuple)[1].(float64)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickGroupByPartition(t *testing.T) {
	// Property: groupBy partitions the input — flattening the groups yields
	// the original multiset (projected on non-key then re-paired with key).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(50)
		rows := make(value.Bag, n)
		for i := range rows {
			rows[i] = value.Tuple{int64(r.Intn(4)), int64(r.Intn(9))}
		}
		env := nrc.Env{"R": nrc.BagOf(nrc.Tup("k", nrc.IntT, "v", nrc.IntT))}
		var s *nrc.Scope
		s = s.Bind("R", rows)
		g := nrc.GroupByOf(nrc.V("R"), "k")
		flat := nrc.ForIn("grp", g,
			nrc.ForIn("e", nrc.P(nrc.V("grp"), "group"),
				nrc.SingOf(nrc.Record("k", nrc.P(nrc.V("grp"), "k"), "v", nrc.P(nrc.V("e"), "v")))))
		if _, err := nrc.Check(flat, env); err != nil {
			return false
		}
		return value.Equal(nrc.Eval(flat, s), rows)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFreeVarsProgram(t *testing.T) {
	// Later steps consuming earlier outputs add no free variables.
	steps := []nrc.Assignment{
		{Name: "A", Expr: nrc.ForIn("x", nrc.V("R"), nrc.SingOf(nrc.V("x")))},
		{Name: "B", Expr: nrc.ForIn("x", nrc.V("A"),
			nrc.ForIn("y", nrc.V("S"), nrc.SingOf(nrc.V("y"))))},
	}
	got := nrc.FreeVarsProgram(steps)
	if len(got) != 2 || !got["R"] || !got["S"] {
		t.Fatalf("FreeVarsProgram = %v, want {R, S}", got)
	}
}

// TestCheckRefusesNodeSharedUnderTwoTypes: a node holds one type, so one
// *Var used under two binders of different tuple types — `for s in
// sumby[name; k](…)` beside `for s in S`, with k at another position in each
// — would be read by Eval through whichever binder was checked last. Check
// refuses it, naming the node; the same query with a node per use checks and
// evaluates as written.
func TestCheckRefusesNodeSharedUnderTwoTypes(t *testing.T) {
	env := nrc.Env{
		"R": nrc.BagOf(nrc.Tup("a", nrc.IntT)),
		"S": nrc.BagOf(nrc.Tup("v", nrc.IntT, "name", nrc.StringT, "k", nrc.IntT)),
	}
	query := func(s1, s2 *nrc.Var) nrc.Expr {
		x, y := nrc.V("x"), nrc.V("y")
		summed := nrc.SumByOf(nrc.ForIn("y", nrc.V("S"), nrc.SingOf(nrc.Record(
			"name", nrc.P(y, "name"), "k", nrc.P(y, "k")))), []string{"name"}, []string{"k"})
		names := func(s *nrc.Var, src nrc.Expr) nrc.Expr {
			return nrc.ForIn("s", src, nrc.IfThen(nrc.EqOf(nrc.P(s, "k"), nrc.P(x, "a")), nrc.SingOf(nrc.Record("n", nrc.P(s, "name")))))
		}
		return nrc.ForIn("x", nrc.V("R"), nrc.SingOf(nrc.Record(
			"summed", names(s1, summed), "plain", names(s2, nrc.V("S")))))
	}

	shared := nrc.V("s")
	_, err := nrc.Check(query(shared, shared), env)
	var xe *nrc.ExprError
	if !errors.As(err, &xe) || xe.Node != shared {
		t.Fatalf("Check of a shared s: %v (node %v), want an ExprError naming s", err, xe)
	}

	scope := (&nrc.Scope{}).
		Bind("R", value.Bag{value.Tuple{int64(3)}}).
		Bind("S", value.Bag{value.Tuple{int64(9), "p", int64(3)}, value.Tuple{int64(3), "q", int64(1)}})
	got := evalChecked(t, query(nrc.V("s"), nrc.V("s")), env, scope)
	want := value.Bag{value.Tuple{value.Bag{value.Tuple{"p"}}, value.Bag{value.Tuple{"p"}}}}
	if !value.Equal(got, want) {
		t.Fatalf("got %s, want %s", value.Format(got), value.Format(want))
	}
}
