package exec_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/trance-go/trance/internal/core"
	"github.com/trance-go/trance/internal/dataflow"
	"github.com/trance-go/trance/internal/exec"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/testdata"
	"github.com/trance-go/trance/internal/value"
)

// rowsOf converts a bag of tuples to engine rows.
func rowsOf(b value.Bag) []dataflow.Row {
	out := make([]dataflow.Row, len(b))
	for i, e := range b {
		if t, ok := e.(value.Tuple); ok {
			out[i] = dataflow.Row(t)
		} else {
			out[i] = dataflow.Row{e}
		}
	}
	return out
}

// bagOf converts collected rows back to a bag of tuples (single-column rows
// collapse to scalars to mirror Bag(F) with scalar F).
func bagOf(rows []dataflow.Row, scalar bool) value.Bag {
	out := make(value.Bag, len(rows))
	for i, r := range rows {
		if scalar {
			out[i] = r[0]
		} else {
			out[i] = value.Tuple(r)
		}
	}
	return out
}

// runStandard compiles and executes a query over the given inputs and
// returns the result bag.
func runStandard(t *testing.T, q nrc.Expr, env nrc.Env, inputs map[string]value.Bag, parallelism int, skewAware bool) value.Bag {
	t.Helper()
	if _, err := nrc.Check(q, env); err != nil {
		t.Fatalf("check: %v", err)
	}
	c, err := core.NewCompiler(env)
	if err != nil {
		t.Fatal(err)
	}
	op, err := c.Compile(q)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	ctx := dataflow.NewContext(parallelism)
	ex := exec.New(ctx)
	ex.SkewAware = skewAware
	for name, b := range inputs {
		ex.BindRows(name, rowsOf(b))
	}
	out, err := ex.Run(op)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	_, scalar := q.Type().(nrc.BagType).Elem.(nrc.TupleType)
	return bagOf(out.Collect(), !scalar)
}

// oracle evaluates the query with the local evaluator.
func oracle(t *testing.T, q nrc.Expr, env nrc.Env, inputs map[string]value.Bag) value.Bag {
	t.Helper()
	if _, err := nrc.Check(q, env); err != nil {
		t.Fatalf("check: %v", err)
	}
	var s *nrc.Scope
	for name, b := range inputs {
		s = s.Bind(name, b)
	}
	return nrc.Eval(q, s).(value.Bag)
}

func inputsCOP() map[string]value.Bag {
	return map[string]value.Bag{"COP": testdata.SmallCOP(), "Part": testdata.SmallPart()}
}

func assertMatchesOracle(t *testing.T, q nrc.Expr, env nrc.Env, inputs map[string]value.Bag, parallelism int, skewAware bool) {
	t.Helper()
	want := oracle(t, q, env, inputs)
	got := runStandard(t, q, env, inputs, parallelism, skewAware)
	if !value.Equal(got, want) {
		t.Fatalf("distributed result differs from oracle:\n got %s\nwant %s",
			value.Format(got), value.Format(want))
	}
}

func TestRunningExampleStandard(t *testing.T) {
	assertMatchesOracle(t, testdata.RunningExample(), testdata.Env(), inputsCOP(), 4, false)
}

func TestRunningExampleSkewAware(t *testing.T) {
	assertMatchesOracle(t, testdata.RunningExample(), testdata.Env(), inputsCOP(), 4, true)
}

func TestRunningExampleSinglePartition(t *testing.T) {
	assertMatchesOracle(t, testdata.RunningExample(), testdata.Env(), inputsCOP(), 1, false)
}

func TestRunningExampleManyPartitions(t *testing.T) {
	assertMatchesOracle(t, testdata.RunningExample(), testdata.Env(), inputsCOP(), 16, false)
}

// flatEnv describes flat Orders/Customer inputs for flat-to-nested tests.
func flatEnv() nrc.Env {
	return nrc.Env{
		"Customer": nrc.BagOf(nrc.Tup("custkey", nrc.IntT, "name", nrc.StringT)),
		"Orders":   nrc.BagOf(nrc.Tup("okey", nrc.IntT, "custkey", nrc.IntT, "odate", nrc.DateT)),
	}
}

func flatInputs() map[string]value.Bag {
	return map[string]value.Bag{
		"Customer": {
			value.Tuple{int64(1), "alice"},
			value.Tuple{int64(2), "bob"},
			value.Tuple{int64(3), "carol"}, // no orders
		},
		"Orders": {
			value.Tuple{int64(10), int64(1), value.MakeDate(2020, 1, 1)},
			value.Tuple{int64(11), int64(1), value.MakeDate(2020, 2, 2)},
			value.Tuple{int64(12), int64(2), value.MakeDate(2020, 3, 3)},
			value.Tuple{int64(13), int64(9), value.MakeDate(2020, 4, 4)}, // dangling custkey
		},
	}
}

// flatToNested groups Orders under Customer: the canonical flat-to-nested
// query of the paper's benchmark.
func flatToNested() nrc.Expr {
	return nrc.ForIn("c", nrc.V("Customer"),
		nrc.SingOf(nrc.Record(
			"name", nrc.P(nrc.V("c"), "name"),
			"orders", nrc.ForIn("o", nrc.V("Orders"),
				nrc.IfThen(nrc.EqOf(nrc.P(nrc.V("o"), "custkey"), nrc.P(nrc.V("c"), "custkey")),
					nrc.SingOf(nrc.Record("odate", nrc.P(nrc.V("o"), "odate"))))),
		)))
}

func TestFlatToNested(t *testing.T) {
	assertMatchesOracle(t, flatToNested(), flatEnv(), flatInputs(), 4, false)
}

func TestFlatToNestedKeepsEmptyGroups(t *testing.T) {
	got := runStandard(t, flatToNested(), flatEnv(), flatInputs(), 4, false)
	// carol has no orders but must appear with an empty bag.
	found := false
	for _, e := range got {
		tup := e.(value.Tuple)
		if tup[0] == "carol" {
			found = true
			if len(tup[1].(value.Bag)) != 0 {
				t.Fatalf("carol should have empty orders, got %s", value.Format(tup[1]))
			}
		}
	}
	if !found {
		t.Fatal("carol missing from output")
	}
}

// nestedToFlat navigates COP and aggregates at the top: the benchmark's
// nested-to-flat shape.
func nestedToFlat() nrc.Expr {
	return nrc.SumByOf(
		nrc.ForIn("cop", nrc.V("COP"),
			nrc.ForIn("co", nrc.P(nrc.V("cop"), "corders"),
				nrc.ForIn("op", nrc.P(nrc.V("co"), "oparts"),
					nrc.ForIn("p", nrc.V("Part"),
						nrc.IfThen(nrc.EqOf(nrc.P(nrc.V("op"), "pid"), nrc.P(nrc.V("p"), "pid")),
							nrc.SingOf(nrc.Record(
								"cname", nrc.P(nrc.V("cop"), "cname"),
								"total", nrc.MulOf(nrc.P(nrc.V("op"), "qty"), nrc.P(nrc.V("p"), "price")),
							))))))),
		[]string{"cname"}, []string{"total"})
}

func TestNestedToFlat(t *testing.T) {
	assertMatchesOracle(t, nestedToFlat(), testdata.Env(), inputsCOP(), 4, false)
}

func TestNestedToFlatDropsEmptyCustomers(t *testing.T) {
	got := runStandard(t, nestedToFlat(), testdata.Env(), inputsCOP(), 4, false)
	for _, e := range got {
		if e.(value.Tuple)[0] == "carol" {
			t.Fatal("carol contributes nothing and must not appear in a root aggregate")
		}
	}
}

func TestGroupByRoot(t *testing.T) {
	q := nrc.GroupByOf(nrc.V("Part"), "pname")
	env := nrc.Env{"Part": testdata.PartType}
	in := map[string]value.Bag{"Part": {
		value.Tuple{int64(1), "bolt", 2.0},
		value.Tuple{int64(2), "bolt", 3.0},
		value.Tuple{int64(3), "nut", 1.0},
	}}
	assertMatchesOracle(t, q, env, in, 3, false)
}

func TestDedupRoot(t *testing.T) {
	q := nrc.DedupOf(nrc.ForIn("p", nrc.V("Part"), nrc.SingOf(nrc.Record("pname", nrc.P(nrc.V("p"), "pname")))))
	env := nrc.Env{"Part": testdata.PartType}
	in := map[string]value.Bag{"Part": {
		value.Tuple{int64(1), "bolt", 2.0},
		value.Tuple{int64(2), "bolt", 3.0},
		value.Tuple{int64(3), "nut", 1.0},
	}}
	assertMatchesOracle(t, q, env, in, 3, false)
}

func TestUnionRoot(t *testing.T) {
	q := nrc.UnionOf(
		nrc.ForIn("p", nrc.V("Part"), nrc.SingOf(nrc.Record("pid", nrc.P(nrc.V("p"), "pid")))),
		nrc.ForIn("p", nrc.V("Part"), nrc.SingOf(nrc.Record("pid", nrc.P(nrc.V("p"), "pid")))),
	)
	env := nrc.Env{"Part": testdata.PartType}
	in := map[string]value.Bag{"Part": testdata.SmallPart()}
	assertMatchesOracle(t, q, env, in, 3, false)
}

func TestEmptyInputs(t *testing.T) {
	in := map[string]value.Bag{"COP": {}, "Part": {}}
	assertMatchesOracle(t, testdata.RunningExample(), testdata.Env(), in, 4, false)
}

func TestEmptyPart(t *testing.T) {
	in := map[string]value.Bag{"COP": testdata.SmallCOP(), "Part": {}}
	assertMatchesOracle(t, testdata.RunningExample(), testdata.Env(), in, 4, false)
}

func TestResidualFilterNested(t *testing.T) {
	// Orders filtered by date below the root: customers must survive with
	// the orders that pass; customers whose orders all fail keep an empty bag.
	q := nrc.ForIn("c", nrc.V("Customer"),
		nrc.SingOf(nrc.Record(
			"name", nrc.P(nrc.V("c"), "name"),
			"orders", nrc.ForIn("o", nrc.V("Orders"),
				nrc.IfThen(nrc.EqOf(nrc.P(nrc.V("o"), "custkey"), nrc.P(nrc.V("c"), "custkey")),
					nrc.IfThen(nrc.GtOf(nrc.P(nrc.V("o"), "odate"), nrc.C(value.MakeDate(2020, 1, 15))),
						nrc.SingOf(nrc.Record("odate", nrc.P(nrc.V("o"), "odate")))))),
		)))
	assertMatchesOracle(t, q, flatEnv(), flatInputs(), 4, false)
}

func TestConstantBagField(t *testing.T) {
	// A constant inner bag per customer.
	q := nrc.ForIn("c", nrc.V("Customer"),
		nrc.SingOf(nrc.Record(
			"name", nrc.P(nrc.V("c"), "name"),
			"tags", nrc.SingOf(nrc.Record("tag", nrc.C("vip"))),
		)))
	assertMatchesOracle(t, q, flatEnv(), flatInputs(), 3, false)
}

func TestEmptyBagField(t *testing.T) {
	q := nrc.ForIn("c", nrc.V("Customer"),
		nrc.SingOf(nrc.Record(
			"name", nrc.P(nrc.V("c"), "name"),
			"tags", nrc.EmptyOf(nrc.Tup("tag", nrc.StringT)),
		)))
	assertMatchesOracle(t, q, flatEnv(), flatInputs(), 3, false)
}

func TestMultipleBagFields(t *testing.T) {
	// Two independent nested collections in one tuple.
	q := nrc.ForIn("c", nrc.V("Customer"),
		nrc.SingOf(nrc.Record(
			"name", nrc.P(nrc.V("c"), "name"),
			"orders", nrc.ForIn("o", nrc.V("Orders"),
				nrc.IfThen(nrc.EqOf(nrc.P(nrc.V("o"), "custkey"), nrc.P(nrc.V("c"), "custkey")),
					nrc.SingOf(nrc.Record("odate", nrc.P(nrc.V("o"), "odate"))))),
			"keys", nrc.SingOf(nrc.Record("k", nrc.P(nrc.V("c"), "custkey"))),
		)))
	assertMatchesOracle(t, q, flatEnv(), flatInputs(), 4, false)
}

func TestScalarElementBag(t *testing.T) {
	// Bag of scalars below the root.
	q := nrc.ForIn("c", nrc.V("Customer"),
		nrc.SingOf(nrc.Record(
			"name", nrc.P(nrc.V("c"), "name"),
			"dates", nrc.ForIn("o", nrc.V("Orders"),
				nrc.IfThen(nrc.EqOf(nrc.P(nrc.V("o"), "custkey"), nrc.P(nrc.V("c"), "custkey")),
					nrc.SingOf(nrc.P(nrc.V("o"), "odate")))),
		)))
	assertMatchesOracle(t, q, flatEnv(), flatInputs(), 4, false)
}

func TestNestedSumByReferencingOuter(t *testing.T) {
	// sumBy below the root whose input references outer attributes.
	q := testdata.RunningExample()
	assertMatchesOracle(t, q, testdata.Env(), inputsCOP(), 8, false)
}

func TestProgramExecution(t *testing.T) {
	env := flatEnv()
	p := &nrc.Program{Stmts: []nrc.Assignment{
		{Name: "Nested", Expr: flatToNested()},
		{Name: "Flat", Expr: nrc.ForIn("n", nrc.V("Nested"),
			nrc.ForIn("o", nrc.P(nrc.V("n"), "orders"),
				nrc.SingOf(nrc.Record("name", nrc.P(nrc.V("n"), "name"), "odate", nrc.P(nrc.V("o"), "odate")))))},
	}}
	types, err := nrc.CheckProgram(p, env)
	if err != nil {
		t.Fatal(err)
	}
	_ = types
	c, err := core.NewCompiler(env)
	if err != nil {
		t.Fatal(err)
	}
	stmts, err := c.CompileProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	ctx := dataflow.NewContext(4)
	ex := exec.New(ctx)
	for name, b := range flatInputs() {
		ex.BindRows(name, rowsOf(b))
	}
	results := map[string]*dataflow.Dataset{}
	for _, st := range stmts {
		d, err := ex.Run(st.Plan)
		if err != nil {
			t.Fatalf("assignment %s: %v", st.Name, err)
		}
		ex.Bind(st.Name, d)
		results[st.Name] = d
	}
	// Oracle.
	var s *nrc.Scope
	for name, b := range flatInputs() {
		s = s.Bind(name, b)
	}
	want := nrc.EvalProgram(p, s)
	got := bagOf(results["Flat"].Collect(), false)
	if !value.Equal(got, want["Flat"]) {
		t.Fatalf("program mismatch:\n got %s\nwant %s", value.Format(got), value.Format(want["Flat"]))
	}
}

func TestQuickRandomCOPStandardMatchesOracle(t *testing.T) {
	q := testdata.RunningExample()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inputs := map[string]value.Bag{
			"COP":  testdata.RandomCOP(r, 1+r.Intn(6), 3, 4, 8),
			"Part": testdata.RandomPart(r, 8),
		}
		want := oracle(t, q, testdata.Env(), inputs)
		got := runStandard(t, q, testdata.Env(), inputs, 1+r.Intn(6), false)
		return value.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSkewAwareMatchesStandard(t *testing.T) {
	q := nestedToFlat()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inputs := map[string]value.Bag{
			"COP":  testdata.RandomCOP(r, 1+r.Intn(5), 3, 4, 6),
			"Part": testdata.RandomPart(r, 6),
		}
		want := oracle(t, q, testdata.Env(), inputs)
		got := runStandard(t, q, testdata.Env(), inputs, 1+r.Intn(5), true)
		return value.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
