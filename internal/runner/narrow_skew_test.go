package runner_test

import (
	"math/rand"
	"testing"

	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/runner"
	"github.com/trance-go/trance/internal/testdata"
	"github.com/trance-go/trance/internal/tpch"
	"github.com/trance-go/trance/internal/value"
)

// ordersByCustomer joins Orders with Customer at the root — the left key,
// o_custkey, is the skewed one — and nests each order's lineitems below it, so
// the plan numbers its rows above a skew join: over light ∪ heavy.
func ordersByCustomer() nrc.Expr {
	o, c, l := nrc.V("o"), nrc.V("c"), nrc.V("l")
	lines := nrc.ForIn("l", nrc.V("Lineitem"),
		nrc.IfThen(nrc.EqOf(nrc.P(l, "l_orderkey"), nrc.P(o, "o_orderkey")),
			nrc.SingOf(nrc.Record("l_partkey", nrc.P(l, "l_partkey"), "l_quantity", nrc.P(l, "l_quantity")))))
	return nrc.ForIn("o", nrc.V("Orders"), nrc.ForIn("c", nrc.V("Customer"),
		nrc.IfThen(nrc.EqOf(nrc.P(o, "o_custkey"), nrc.P(c, "c_custkey")),
			nrc.SingOf(nrc.Record("o_orderkey", nrc.P(o, "o_orderkey"), "c_name", nrc.P(c, "c_name"), "lines", lines)))))
}

// TestNarrowedKeysUnderSkew: Γ keyed by the AddIndex IDs alone regroups
// exactly as Γ keyed by every flat column when a skew-aware run has heavy
// keys. Where the IDs are handed out above a skew join (ordersByCustomer) the
// narrowing leans on them being unique across the light and heavy components
// (plan.idDeps, exec.heavyIDBit).
func TestNarrowedKeysUnderSkew(t *testing.T) {
	tables := tpch.Generate(tpch.Config{Customers: 60, OrdersPerCustomer: 5, LinesPerOrder: 4, Parts: 30, SkewFactor: 3, Seed: 1})
	r := rand.New(rand.NewSource(7))
	cases := []struct {
		name   string
		q      func() nrc.Expr
		env    nrc.Env
		inputs map[string]value.Bag
	}{
		{"running example", testdata.RunningExample, testdata.Env(),
			map[string]value.Bag{"COP": testdata.RandomCOP(r, 40, 4, 6, 3), "Part": testdata.RandomPart(r, 3)}},
		{"orders ⋈ customer over nested lineitems", ordersByCustomer, tpch.FlatEnv(), tables.Inputs()},
		{"tpch nested-to-nested L2", func() nrc.Expr { return tpch.Query(tpch.NestedToNested, 2, false) },
			tpch.Env(tpch.NestedToNested, 2, false),
			map[string]value.Bag{"NDB": tpch.BuildNested(tables, 2, true), "Part": tables.Part}},
	}
	for _, c := range cases {
		// No broadcast limit: the light parts shuffle, so bytes are broadcast
		// only to the heavy rows of a skew join.
		narrow := runner.DefaultConfig()
		narrow.BroadcastLimit = 0
		wide := narrow
		wide.NoColumnPruning = true
		var outs [2]value.Bag
		var keys [2]int
		for i, cfg := range []runner.Config{narrow, wide} {
			cq, err := runner.CompileStep(c.q(), c.env, runner.StandardSkew, cfg, nil, "Q")
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			res := runner.ExecuteBags(t.Context(), []*runner.Compiled{cq}, c.inputs, runner.NewRunContext(cfg), runner.ExecOptions{})
			if res.Failed() {
				t.Fatalf("%s: %v", c.name, res.Err)
			}
			if res.Metrics.BroadcastBytes == 0 {
				t.Fatalf("%s: no heavy key — the skew join broadcast nothing", c.name)
			}
			keys[i], _ = nestKeyCols(cq)
			if outs[i], err = nestedOutput(cq, res); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		if keys[0] >= keys[1] {
			t.Fatalf("%s: %d Γ key columns narrowed, %d with NoColumnPruning", c.name, keys[0], keys[1])
		}
		if !value.Equal(outs[0], outs[1]) {
			t.Fatalf("%s: Γ keyed by the IDs differs from Γ keyed by every flat column:\n got %s\nwant %s",
				c.name, value.Format(outs[0]), value.Format(outs[1]))
		}
	}
}

// TestFusedJoinsUnderSkew: at skew 3 the level-2 nested-to-nested query
// returns the same rows whether its joins write their projection (plan.Fuse)
// or L ++ R under a π (NoColumnPruning), on every route that splits heavy keys
// — where the heavy-key columns of the skew-triples have to follow the fused
// joins' layouts — and on the one auto picks from the statistics.
func TestFusedJoinsUnderSkew(t *testing.T) {
	tables := tpch.Generate(tpch.Config{Customers: 60, OrdersPerCustomer: 5, LinesPerOrder: 4, Parts: 30, SkewFactor: 3, Seed: 1})
	env := tpch.Env(tpch.NestedToNested, 2, false)
	inputs := map[string]value.Bag{"NDB": tpch.BuildNested(tables, 2, true), "Part": tables.Part}
	fused := runner.DefaultConfig()
	fused.BroadcastLimit = 0 // bytes are broadcast only to the heavy rows of a skew join
	ests := collectDiffStats(env, inputs)
	unfused := fused
	unfused.NoColumnPruning = true
	for _, strat := range []runner.Strategy{runner.StandardSkew, runner.ShredSkew, runner.ShredUnshredSkew, runner.Auto} {
		var outs [2]value.Bag
		for i, cfg := range []runner.Config{fused, unfused} {
			cq, err := runner.CompileStep(tpch.Query(tpch.NestedToNested, 2, false), env, strat, cfg, ests, "Q")
			if err != nil {
				t.Fatalf("%s: %v", strat, err)
			}
			if !cq.Strategy.SkewAware() {
				t.Fatalf("%s resolved to %s, which splits no heavy keys", strat, cq.Strategy)
			}
			if joins, _ := fusionOf(cq); (joins > 0) != (i == 0) {
				t.Fatalf("%s (NoColumnPruning=%t): %d joins write their projection\n%s", strat, cfg.NoColumnPruning, joins, cq.Explain())
			}
			res := runner.ExecuteBags(t.Context(), []*runner.Compiled{cq}, inputs, runner.NewRunContext(cfg), runner.ExecOptions{})
			if res.Failed() {
				t.Fatalf("%s: %v", strat, res.Err)
			}
			if res.Metrics.BroadcastBytes == 0 {
				t.Fatalf("%s: no heavy key — the skew join broadcast nothing", strat)
			}
			if outs[i], err = nestedOutput(cq, res); err != nil {
				t.Fatalf("%s: %v", strat, err)
			}
		}
		if len(outs[0]) == 0 || !value.Equal(outs[0], outs[1]) {
			t.Fatalf("%s: fused joins return %d rows, π over plain joins %d, or they differ:\n got %s\nwant %s",
				strat, len(outs[0]), len(outs[1]), value.Format(outs[0]), value.Format(outs[1]))
		}
	}
}

// TestFusedJoinReadByNobody: a keyed join whose columns the output never reads
// sits under a zero-column π (plan.Prune builds it) as the left side of a cross
// join. Folded into the join that π is still a projection to no columns — not
// "write L ++ R" — or every position above it shifts and the output reads a
// customer key where it meant a part name.
func TestFusedJoinReadByNobody(t *testing.T) {
	tables := tpch.Generate(tpch.Config{Customers: 6, OrdersPerCustomer: 2, LinesPerOrder: 1, Parts: 3, Seed: 1})
	o, c, p := nrc.V("o"), nrc.V("c"), nrc.V("p")
	q := nrc.ForIn("o", nrc.V("Orders"), nrc.ForIn("c", nrc.V("Customer"),
		nrc.IfThen(nrc.EqOf(nrc.P(o, "o_custkey"), nrc.P(c, "c_custkey")),
			nrc.ForIn("p", nrc.V("Part"), nrc.SingOf(nrc.Record("name", nrc.P(p, "p_name")))))))
	want, err := oracleEval(q, tpch.FlatEnv(), tables.Inputs())
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []runner.Strategy{runner.Standard, runner.StandardSkew, runner.ShredUnshred} {
		// Without the optimizer the π reaches Fuse as Prune built it, Outs nil;
		// pushdown rebuilds every π it crosses with an empty, non-nil Outs.
		for _, noPushdown := range []bool{true, false} {
			cfg := runner.DefaultConfig()
			cfg.NoPredicatePushdown = noPushdown
			cq, err := runner.CompileStep(q, tpch.FlatEnv(), strat, cfg, nil, "Q")
			if err != nil {
				t.Fatalf("%s: %v", strat, err)
			}
			if joins, _ := fusionOf(cq); joins == 0 {
				t.Fatalf("%s: no join writes its projection\n%s", strat, cq.Explain())
			}
			res := runner.ExecuteBags(t.Context(), []*runner.Compiled{cq}, tables.Inputs(), runner.NewRunContext(cfg), runner.ExecOptions{})
			if res.Failed() {
				t.Fatalf("%s: %v", strat, res.Err)
			}
			got, err := nestedOutput(cq, res)
			if err != nil {
				t.Fatalf("%s: %v", strat, err)
			}
			if len(want) != 12*3 || !value.Equal(got, want) {
				t.Fatalf("%s:\n got %s\nwant %s\n%s", strat, value.Format(got), value.Format(want), cq.Explain())
			}
		}
	}
}
