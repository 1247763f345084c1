package tpch

import (
	"context"
	"testing"

	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/runner"
	"github.com/trance-go/trance/internal/value"
)

func smallTables() *Tables {
	return Generate(Config{Customers: 20, OrdersPerCustomer: 3, LinesPerOrder: 3, Parts: 15, Seed: 2})
}

func TestGenerateShapes(t *testing.T) {
	tb := smallTables()
	if len(tb.Region) != 5 || len(tb.Nation) != 25 {
		t.Fatalf("region/nation sizes: %d/%d", len(tb.Region), len(tb.Nation))
	}
	if len(tb.Customer) != 20 || len(tb.Orders) != 60 || len(tb.Lineitem) != 180 || len(tb.Part) != 15 {
		t.Fatalf("sizes: c=%d o=%d l=%d p=%d", len(tb.Customer), len(tb.Orders), len(tb.Lineitem), len(tb.Part))
	}
	// Rows must match declared schemas.
	checkRows := func(b value.Bag, bt nrc.BagType, name string) {
		tt := bt.Elem.(nrc.TupleType)
		for _, e := range b {
			if len(e.(value.Tuple)) != len(tt.Fields) {
				t.Fatalf("%s row width %d != schema %d", name, len(e.(value.Tuple)), len(tt.Fields))
			}
		}
	}
	checkRows(tb.Customer, CustomerType, "customer")
	checkRows(tb.Orders, OrdersType, "orders")
	checkRows(tb.Lineitem, LineitemType, "lineitem")
	checkRows(tb.Part, PartType, "part")
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultConfig())
	b := Generate(DefaultConfig())
	if !value.Equal(a.Lineitem, b.Lineitem) || !value.Equal(a.Orders, b.Orders) {
		t.Fatal("generation must be deterministic for a fixed seed")
	}
}

func TestSkewConcentratesKeys(t *testing.T) {
	cfg := Config{Customers: 100, OrdersPerCustomer: 10, LinesPerOrder: 2, Parts: 20, Seed: 3}
	uniform := Generate(cfg)
	cfg.SkewFactor = 4
	skewed := Generate(cfg)

	maxShare := func(orders value.Bag) float64 {
		counts := map[int64]int{}
		for _, e := range orders {
			counts[e.(value.Tuple)[1].(int64)]++
		}
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		return float64(max) / float64(len(orders))
	}
	u, s := maxShare(uniform.Orders), maxShare(skewed.Orders)
	if s < 5*u {
		t.Fatalf("skew factor 4 should concentrate orders: uniform max share %.3f, skewed %.3f", u, s)
	}
	if s < 0.5 {
		t.Fatalf("at factor 4 the heaviest customer should dominate, got %.3f", s)
	}
}

func TestAllQueriesTypeCheck(t *testing.T) {
	for _, class := range []QueryClass{FlatToNested, NestedToNested, NestedToFlat} {
		for level := 0; level <= MaxLevel; level++ {
			for _, wide := range []bool{false, true} {
				q := Query(class, level, wide)
				env := Env(class, level, wide)
				if _, err := nrc.Check(q, env); err != nil {
					t.Fatalf("%s level %d wide=%t: %v", class, level, wide, err)
				}
			}
		}
	}
}

func TestBuildNestedMatchesQuery(t *testing.T) {
	tb := smallTables()
	for _, wide := range []bool{false, true} {
		for level := 0; level <= 2; level++ {
			q := FlatToNestedQuery(level, wide)
			if _, err := nrc.Check(q, FlatEnv()); err != nil {
				t.Fatal(err)
			}
			var s *nrc.Scope
			for name, b := range tb.Inputs() {
				s = s.Bind(name, b)
			}
			want := nrc.Eval(q, s).(value.Bag)
			got := BuildNested(tb, level, wide)
			if !value.Equal(got, want) {
				t.Fatalf("BuildNested(level=%d wide=%t) differs from query result", level, wide)
			}
		}
	}
}

func TestNestedTypeMatchesBuiltValue(t *testing.T) {
	tb := smallTables()
	for level := 0; level <= MaxLevel; level++ {
		b := BuildNested(tb, level, true)
		tt := NestedType(level, true)
		if len(b) == 0 {
			continue
		}
		if err := conforms(b[0], tt.Elem); err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
	}
}

func conforms(v value.Value, t nrc.Type) error {
	switch x := t.(type) {
	case nrc.TupleType:
		tup, ok := v.(value.Tuple)
		if !ok || len(tup) != len(x.Fields) {
			return errf("want tuple %s, got %s", x, value.Format(v))
		}
		for i, f := range x.Fields {
			if err := conforms(tup[i], f.Type); err != nil {
				return err
			}
		}
	case nrc.BagType:
		bag, ok := v.(value.Bag)
		if !ok {
			return errf("want bag, got %s", value.Format(v))
		}
		if len(bag) > 0 {
			return conforms(bag[0], x.Elem)
		}
	}
	return nil
}

func errf(format string, args ...any) error { return &testErr{msg: format, args: args} }

type testErr struct {
	msg  string
	args []any
}

func (e *testErr) Error() string { return e.msg }

// TestStrategiesAgreeOnSuite runs a sweep of the suite at tiny scale across
// Standard, SparkSQL-style and Shred+Unshred and checks all agree with the
// local evaluator.
func TestStrategiesAgreeOnSuite(t *testing.T) {
	tb := smallTables()
	cfg := runner.DefaultConfig()
	cfg.Parallelism = 4
	for _, class := range []QueryClass{FlatToNested, NestedToNested, NestedToFlat} {
		for level := 0; level <= 2; level++ {
			q := Query(class, level, false)
			env := Env(class, level, false)
			inputs := map[string]value.Bag{}
			if class == FlatToNested {
				inputs = tb.Inputs()
			} else {
				inputs["NDB"] = BuildNested(tb, level, true)
				inputs["Part"] = tb.Part
			}
			if _, err := nrc.Check(q, env); err != nil {
				t.Fatalf("%s L%d: %v", class, level, err)
			}
			var s *nrc.Scope
			for name, b := range inputs {
				s = s.Bind(name, b)
			}
			want := nrc.Eval(q, s).(value.Bag)

			for _, strat := range []runner.Strategy{runner.Standard, runner.SparkSQLStyle, runner.Shred} {
				res := runQuery(q, env, inputs, strat, cfg)
				if res.Failed() {
					t.Fatalf("%s %s L%d failed: %v", strat, class, level, res.Err)
				}
				got := make(value.Bag, 0)
				for _, r := range res.Output.CollectSorted() {
					got = append(got, value.Tuple(r))
				}
				if !value.Equal(got, want) {
					t.Fatalf("%s %s L%d differs from oracle", strat, class, level)
				}
			}
		}
	}
}

func TestSkewStrategiesAgree(t *testing.T) {
	cfg := Config{Customers: 30, OrdersPerCustomer: 6, LinesPerOrder: 4, Parts: 20, Seed: 5, SkewFactor: 3}
	tb := Generate(cfg)
	rcfg := runner.DefaultConfig()
	q := Query(NestedToNested, 2, false)
	env := Env(NestedToNested, 2, false)
	inputs := map[string]value.Bag{"NDB": BuildNested(tb, 2, true), "Part": tb.Part}
	if _, err := nrc.Check(q, env); err != nil {
		t.Fatal(err)
	}
	var s *nrc.Scope
	for name, b := range inputs {
		s = s.Bind(name, b)
	}
	want := nrc.Eval(q, s).(value.Bag)
	for _, strat := range []runner.Strategy{runner.StandardSkew, runner.ShredSkew} {
		res := runQuery(q, env, inputs, strat, rcfg)
		if res.Failed() {
			t.Fatalf("%s failed: %v", strat, res.Err)
		}
		got := make(value.Bag, 0)
		for _, r := range res.Output.CollectSorted() {
			got = append(got, value.Tuple(r))
		}
		if !value.Equal(got, want) {
			t.Fatalf("%s differs from oracle on skewed data", strat)
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
