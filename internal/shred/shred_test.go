package shred_test

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/runner"
	"github.com/trance-go/trance/internal/shred"
	"github.com/trance-go/trance/internal/testdata"
	"github.com/trance-go/trance/internal/value"
)

func TestShredTypeCOP(t *testing.T) {
	top, dicts, err := shred.ShredType(testdata.COPType)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 || top[1].Name != "corders" || !nrc.TypesEqual(top[1].Type, nrc.LabelT) {
		t.Fatalf("top cols wrong: %+v", top)
	}
	if len(dicts) != 2 {
		t.Fatalf("want 2 dictionaries, got %d", len(dicts))
	}
	if strings.Join(dicts[0].Path, "_") != "corders" || strings.Join(dicts[1].Path, "_") != "corders_oparts" {
		t.Fatalf("paths wrong: %v %v", dicts[0].Path, dicts[1].Path)
	}
	// corders dict: label, odate, oparts(label).
	if len(dicts[0].Cols) != 3 || !nrc.TypesEqual(dicts[0].Cols[2].Type, nrc.LabelT) {
		t.Fatalf("corders dict cols wrong: %+v", dicts[0].Cols)
	}
}

func TestValueShredUnshredRoundTrip(t *testing.T) {
	cop := testdata.SmallCOP()
	si, err := shred.ShredInput("COP", cop, testdata.COPType)
	if err != nil {
		t.Fatal(err)
	}
	top := si.Rows["COP__F"]
	if len(top) != 3 {
		t.Fatalf("top rows: %d", len(top))
	}
	dicts := map[string][]value.Tuple{
		"corders":        si.Rows["COP__corders"],
		"corders_oparts": si.Rows["COP__corders_oparts"],
	}
	back, err := shred.UnshredValue(top, dicts, testdata.COPType)
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(back, cop) {
		t.Fatalf("round trip failed:\n got %s\nwant %s", value.Format(back), value.Format(cop))
	}
}

func TestQuickValueShredRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cop := testdata.RandomCOP(r, 1+r.Intn(8), 3, 4, 9)
		si, err := shred.ShredInput("COP", cop, testdata.COPType)
		if err != nil {
			return false
		}
		dicts := map[string][]value.Tuple{
			"corders":        si.Rows["COP__corders"],
			"corders_oparts": si.Rows["COP__corders_oparts"],
		}
		back, err := shred.UnshredValue(si.Rows["COP__F"], dicts, testdata.COPType)
		if err != nil {
			return false
		}
		return value.Equal(back, cop)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestShredQueryProducesFlatProgram(t *testing.T) {
	m, err := shred.ShredQuery(testdata.RunningExample(), testdata.Env(), "Q", shred.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Top bag + two dictionaries.
	if len(m.Program.Stmts) != 3 {
		t.Fatalf("want 3 assignments, got %d:\n%s", len(m.Program.Stmts), nrc.PrintProgram(m.Program))
	}
	if m.Program.Stmts[0].Name != "Q" {
		t.Fatalf("first assignment should be the top bag, got %s", m.Program.Stmts[0].Name)
	}
	if len(m.Dicts) != 2 {
		t.Fatalf("want 2 output dictionaries, got %v", m.Dicts)
	}
	// Domain elimination must remove every LabDomain assignment.
	for _, st := range m.Program.Stmts {
		if strings.HasPrefix(st.Name, "LabDomain") {
			t.Fatalf("domain elimination left %s:\n%s", st.Name, nrc.PrintProgram(m.Program))
		}
	}
}

func TestShredQueryBaselineKeepsDomains(t *testing.T) {
	m, err := shred.ShredQuery(testdata.RunningExample(), testdata.Env(), "Q", shred.Options{DomainElimination: false})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, st := range m.Program.Stmts {
		if strings.HasPrefix(st.Name, "LabDomain") {
			found = true
		}
	}
	if !found {
		t.Fatalf("baseline materialization should emit label domains:\n%s", nrc.PrintProgram(m.Program))
	}
}

// runBoth executes a job under a shredded strategy and the standard oracle
// and compares nested outputs.
func assertShredMatchesOracle(t *testing.T, q nrc.Expr, env nrc.Env, inputs map[string]value.Bag, strat runner.Strategy, cfg runner.Config) {
	t.Helper()
	if _, err := nrc.Check(q, env); err != nil {
		t.Fatal(err)
	}
	var s *nrc.Scope
	for name, b := range inputs {
		s = s.Bind(name, b)
	}
	want := nrc.Eval(q, s).(value.Bag)

	res := runQuery(q, env, inputs, strat, cfg)
	if res.Failed() {
		t.Fatalf("%s failed: %v", strat, res.Err)
	}
	got := make(value.Bag, 0)
	for _, r := range res.Output.CollectSorted() {
		if len(r) == 1 && isScalarBag(q) {
			got = append(got, r[0])
		} else {
			got = append(got, value.Tuple(r))
		}
	}
	if !value.Equal(got, want) {
		t.Fatalf("%s result differs from oracle:\n got %s\nwant %s",
			strat, value.Format(got), value.Format(want))
	}
}

func isScalarBag(q nrc.Expr) bool {
	b, ok := q.Type().(nrc.BagType)
	if !ok {
		return false
	}
	_, tup := b.Elem.(nrc.TupleType)
	return !tup
}

func inputsCOP() map[string]value.Bag {
	return map[string]value.Bag{"COP": testdata.SmallCOP(), "Part": testdata.SmallPart()}
}

func TestShredUnshredRunningExample(t *testing.T) {
	assertShredMatchesOracle(t, testdata.RunningExample(), testdata.Env(), inputsCOP(),
		runner.Shred, runner.DefaultConfig())
}

func TestShredUnshredRunningExampleBaselineMaterialization(t *testing.T) {
	cfg := runner.DefaultConfig()
	cfg.DomainElimination = false
	assertShredMatchesOracle(t, testdata.RunningExample(), testdata.Env(), inputsCOP(),
		runner.Shred, cfg)
}

func TestShredUnshredSkewAware(t *testing.T) {
	assertShredMatchesOracle(t, testdata.RunningExample(), testdata.Env(), inputsCOP(),
		runner.ShredSkew, runner.DefaultConfig())
}

// Nested-to-flat: top-level aggregation over navigation, no unshredding
// needed.
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

func TestShredNestedToFlat(t *testing.T) {
	assertShredMatchesOracle(t, nestedToFlat(), testdata.Env(), inputsCOP(),
		runner.Shred, runner.DefaultConfig())
}

func TestShredNestedToFlatBaseline(t *testing.T) {
	cfg := runner.DefaultConfig()
	cfg.DomainElimination = false
	assertShredMatchesOracle(t, nestedToFlat(), testdata.Env(), inputsCOP(), runner.Shred, cfg)
}

// Flat-to-nested: builds nesting from flat inputs (domain-elimination rule 2).
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
			value.Tuple{int64(3), "carol"},
		},
		"Orders": {
			value.Tuple{int64(10), int64(1), value.MakeDate(2020, 1, 1)},
			value.Tuple{int64(11), int64(1), value.MakeDate(2020, 2, 2)},
			value.Tuple{int64(12), int64(2), value.MakeDate(2020, 3, 3)},
			value.Tuple{int64(13), int64(9), value.MakeDate(2020, 4, 4)},
		},
	}
}

func flatToNested() nrc.Expr {
	return nrc.ForIn("c", nrc.V("Customer"),
		nrc.SingOf(nrc.Record(
			"name", nrc.P(nrc.V("c"), "name"),
			"orders", nrc.ForIn("o", nrc.V("Orders"),
				nrc.IfThen(nrc.EqOf(nrc.P(nrc.V("o"), "custkey"), nrc.P(nrc.V("c"), "custkey")),
					nrc.SingOf(nrc.Record("odate", nrc.P(nrc.V("o"), "odate"))))),
		)))
}

func TestShredFlatToNestedRule2(t *testing.T) {
	m, err := shred.ShredQuery(flatToNested(), flatEnv(), "Q", shred.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Rule 2 computes the orders dictionary from Orders alone: no MatLookup
	// and no label domains in the program.
	prog := nrc.PrintProgram(m.Program)
	if strings.Contains(prog, "MatLookup") || strings.Contains(prog, "LabDomain") {
		t.Fatalf("rule 2 should compute the dictionary directly from Orders:\n%s", prog)
	}
	assertShredMatchesOracle(t, flatToNested(), flatEnv(), flatInputs(),
		runner.Shred, runner.DefaultConfig())
}

func TestShredIdentityCarry(t *testing.T) {
	// corders carried unchanged: the output dictionary aliases the input one.
	q := nrc.ForIn("cop", nrc.V("COP"),
		nrc.SingOf(nrc.Record(
			"cname", nrc.P(nrc.V("cop"), "cname"),
			"corders", nrc.P(nrc.V("cop"), "corders"),
		)))
	assertShredMatchesOracle(t, q, testdata.Env(), inputsCOP(),
		runner.Shred, runner.DefaultConfig())
}

func TestShredThreeStrategiesAgree(t *testing.T) {
	q := testdata.RunningExample()
	env := testdata.Env()
	inputs := inputsCOP()
	cfg := runner.DefaultConfig()
	a := runQuery(q, env, inputs, runner.Standard, cfg)
	b := runQuery(q, env, inputs, runner.Shred, cfg)
	c := runQuery(q, env, inputs, runner.SparkSQLStyle, cfg)
	for _, r := range []*runner.Result{a, b, c} {
		if r.Failed() {
			t.Fatalf("%s failed: %v", r.Strategy, r.Err)
		}
	}
	ab := bagRows(a)
	bb := bagRows(b)
	cb := bagRows(c)
	if !value.Equal(ab, bb) || !value.Equal(ab, cb) {
		t.Fatalf("strategies disagree:\nstandard %s\nshred    %s\nsparksql %s",
			value.Format(ab), value.Format(bb), value.Format(cb))
	}
}

func bagRows(r *runner.Result) value.Bag {
	rows := r.Output.CollectSorted()
	out := make(value.Bag, len(rows))
	for i, row := range rows {
		out[i] = value.Tuple(row)
	}
	return out
}

func TestQuickShredUnshredMatchesOracle(t *testing.T) {
	q := testdata.RunningExample()
	cfg := runner.DefaultConfig()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inputs := map[string]value.Bag{
			"COP":  testdata.RandomCOP(r, 1+r.Intn(6), 3, 4, 8),
			"Part": testdata.RandomPart(r, 8),
		}
		var s *nrc.Scope
		for name, b := range inputs {
			s = s.Bind(name, b)
		}
		if _, err := nrc.Check(q, testdata.Env()); err != nil {
			return false
		}
		want := nrc.Eval(q, s).(value.Bag)
		res := runQuery(q, testdata.Env(), inputs, runner.Shred, cfg)
		if res.Failed() {
			return false
		}
		return value.Equal(bagRows(res), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestShredShufflesLessThanStandard(t *testing.T) {
	// The headline mechanism (paper Section 6, nested-to-nested): the
	// standard route flattens the whole input and regroups it level by
	// level, shuffling wide flattened rows at every Γ; the shredded route
	// turns the upper levels into pure projections and confines the join and
	// aggregate to the lowest-level dictionary.
	r := rand.New(rand.NewSource(7))
	inputs := map[string]value.Bag{
		"COP":  testdata.RandomCOP(r, 40, 6, 8, 20),
		"Part": testdata.RandomPart(r, 20),
	}
	cfg := runner.DefaultConfig()
	cfg.BroadcastLimit = 0 // force shuffle joins so the comparison is visible
	q := testdata.RunningExample()
	std := runQuery(q, testdata.Env(), inputs, runner.Standard, cfg)
	shr := runQuery(q, testdata.Env(), inputs, runner.Shred, cfg)
	if std.Failed() || shr.Failed() {
		t.Fatalf("runs failed: %v / %v", std.Err, shr.Err)
	}
	if shr.Metrics.ShuffleBytes >= std.Metrics.ShuffleBytes {
		t.Fatalf("shred should shuffle less: shred=%d standard=%d",
			shr.Metrics.ShuffleBytes, std.Metrics.ShuffleBytes)
	}
}

// Regression: a non-equality IfThen predicate (e.g. Gt) directly inside an
// inner ForIn whose head is the whole loop variable — {o | o ∈ c.items,
// o.qty > 10} — used to materialize the dictionary with a single _value
// column while unshredding expected one column per element field, crashing
// exec's nest with an index out of range on the shredded routes.
func tupleVarHeadQuery() nrc.Expr {
	return nrc.ForIn("c", nrc.V("R"),
		nrc.SingOf(nrc.Record(
			"name", nrc.P(nrc.V("c"), "name"),
			"big", nrc.ForIn("o", nrc.P(nrc.V("c"), "items"),
				nrc.IfThen(nrc.GtOf(nrc.P(nrc.V("o"), "qty"), nrc.C(int64(10))),
					nrc.SingOf(nrc.V("o")))),
		)))
}

func tupleVarHeadEnv() nrc.Env {
	return nrc.Env{"R": nrc.BagOf(nrc.Tup(
		"name", nrc.StringT,
		"items", nrc.BagOf(nrc.Tup("qty", nrc.IntT, "sku", nrc.StringT)),
	))}
}

func tupleVarHeadInputs() map[string]value.Bag {
	return map[string]value.Bag{"R": {
		value.Tuple{"a", value.Bag{value.Tuple{int64(5), "x"}, value.Tuple{int64(20), "y"}}},
		value.Tuple{"b", value.Bag{value.Tuple{int64(30), "z"}}},
		value.Tuple{"c", value.Bag{}},
	}}
}

func TestShredUnshredTupleVarHeadNonEqualityFilter(t *testing.T) {
	assertShredMatchesOracle(t, tupleVarHeadQuery(), tupleVarHeadEnv(), tupleVarHeadInputs(),
		runner.Shred, runner.DefaultConfig())
	// Baseline materialization exercises the label-domain route through the
	// same head-flattening code.
	cfg := runner.DefaultConfig()
	cfg.DomainElimination = false
	assertShredMatchesOracle(t, tupleVarHeadQuery(), tupleVarHeadEnv(), tupleVarHeadInputs(),
		runner.Shred, cfg)
}

func TestShredTupleVarHeadDictionarySchema(t *testing.T) {
	res := runQuery(tupleVarHeadQuery(), tupleVarHeadEnv(), tupleVarHeadInputs(),
		runner.Shred, runner.DefaultConfig())
	if res.Failed() {
		t.Fatalf("shred route failed: %v", res.Err)
	}
	if len(res.Mat.Dicts) != 1 {
		t.Fatalf("want one output dictionary, got %+v", res.Mat.Dicts)
	}
	dict := res.Shredded[res.Mat.Dicts[0].Name]
	if dict == nil {
		t.Fatalf("dictionary %s not materialized", res.Mat.Dicts[0].Name)
	}
	rows := dict.Collect()
	if len(rows) != 2 {
		t.Fatalf("want 2 filtered dictionary rows, got %d", len(rows))
	}
	for _, r := range rows {
		// Flattened encoding: ⟨label, qty, sku⟩ — one column per element
		// field, not a collapsed _value tuple.
		if len(r) != 3 {
			t.Fatalf("dictionary row has %d columns, want 3 (label, qty, sku): %s",
				len(r), value.Format(value.Tuple(r)))
		}
	}
}

// runQuery compiles q through runner, planning without statistics, and runs
// it over nested inputs.
func runQuery(q nrc.Expr, env nrc.Env, inputs map[string]value.Bag, strat runner.Strategy, cfg runner.Config) *runner.Result {
	cq, err := runner.CompileStep(q, env, strat, cfg, nil, "Q")
	if err != nil {
		return runner.Failure(strat, err)
	}
	prog := []*runner.Compiled{cq}
	dctx := runner.NewRunContext(cfg)
	rows, idxs, err := runner.NewInputs(inputs, env).Bind(prog, dctx.Parallelism)
	if err != nil {
		return runner.Failure(strat, err)
	}
	return runner.Execute(context.Background(), prog, rows, idxs, dctx, runner.ExecOptions{})
}
