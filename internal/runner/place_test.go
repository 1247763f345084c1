package runner

import (
	"context"
	"slices"
	"strings"
	"testing"

	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/plan"
	"github.com/trance-go/trance/internal/stats"
	"github.com/trance-go/trance/internal/tpch"
	"github.com/trance-go/trance/internal/value"
)

// TestColocatedRoutesSkipExchanges: on the level-2 TPC-H routes with
// statistics (the joins to Part broadcast), every Γ of the nested-to-nested
// standard routes reduces in place — the request runs no exchange at all — and
// flat-to-nested's standard routes ship fewer bytes than the same plans with
// every Γ exchanged; both return what those plans return.
func TestColocatedRoutesSkipExchanges(t *testing.T) {
	tables := tpch.Generate(tpch.Config{Customers: 30, OrdersPerCustomer: 3, LinesPerOrder: 3, Parts: 10, Seed: 1})
	for _, c := range []struct {
		class  tpch.QueryClass
		inputs map[string]value.Bag
		none   bool // no exchange left
	}{
		{tpch.NestedToNested, map[string]value.Bag{"NDB": tpch.BuildNested(tables, 2, true), "Part": tables.Part}, true},
		{tpch.FlatToNested, tables.Inputs(), false},
	} {
		env := tpch.Env(c.class, 2, false)
		cfg := DefaultConfig()
		ests := map[string]plan.TableEstimate{}
		for name, typ := range env {
			ests[name] = stats.Collect(c.inputs[name], typ.(nrc.BagType), stats.Options{}).Estimate()
		}
		for _, strat := range []Strategy{Standard, StandardSkew} {
			cq, err := CompileStep(tpch.Query(c.class, 2, false), env, strat, cfg, ests, "Q")
			if err != nil {
				t.Fatal(err)
			}
			// The plans as they were before plan.Place: every exchange runs.
			exchanged := *cq
			exchanged.Stmts = slices.Clone(cq.Stmts)
			for i := range exchanged.Stmts {
				exchanged.Stmts[i].Plan = plan.Fuse(exchanged.Stmts[i].unfused)
			}
			run := func(cq *Compiled) (value.Bag, int64, int64) {
				res := ExecuteBags(context.Background(), []*Compiled{cq}, c.inputs, NewRunContext(cfg), ExecOptions{})
				if res.Failed() {
					t.Fatalf("%s %s: %v", c.class, strat, res.Err)
				}
				var out value.Bag
				for _, r := range res.Output.Collect() {
					out = append(out, value.Tuple(r))
				}
				return out, res.Metrics.ShuffleBytes, res.Metrics.SkippedShuffles
			}
			got, bytes, skipped := run(cq)
			want, wasBytes, wasSkipped := run(&exchanged)
			if len(got) == 0 || !value.Equal(got, want) {
				t.Errorf("%s %s: %d rows reduced in place, %d exchanged, or they differ", c.class, strat, len(got), len(want))
			}
			if c.none && bytes != 0 || bytes >= wasBytes || skipped <= wasSkipped {
				t.Errorf("%s %s: %d bytes shuffled and %d exchanges skipped, %d and %d with every Γ exchanged:\n%s",
					c.class, strat, bytes, skipped, wasBytes, wasSkipped, cq.Explain())
			}
		}
	}
}

// TestJoinChainOnOneKeySkipsAnExchange: the second of two shuffle joins on one
// key finds its left side already hash-placed on that key by the first, and
// skips that exchange alone — on the standard route, and on the skew-aware one,
// whose second join reuses the first one's light/heavy split. Both return what
// nrc.Eval does.
func TestJoinChainOnOneKeySkipsAnExchange(t *testing.T) {
	env := nrc.Env{
		"R": nrc.BagOf(nrc.Tup("a", nrc.IntT, "v", nrc.IntT)),
		"S": nrc.BagOf(nrc.Tup("k", nrc.IntT, "w", nrc.StringT)),
		"T": nrc.BagOf(nrc.Tup("k", nrc.IntT, "w", nrc.StringT)),
	}
	inputs := map[string]value.Bag{}
	for i := int64(0); i < 40; i++ {
		inputs["R"] = append(inputs["R"], value.Tuple{i % 7, i})
		inputs["S"] = append(inputs["S"], value.Tuple{i % 5, "s"})
		inputs["T"] = append(inputs["T"], value.Tuple{i % 9, "t"})
	}
	query := func() nrc.Expr {
		return nrc.ForIn("r", nrc.V("R"), nrc.ForIn("s", nrc.V("S"),
			nrc.IfThen(nrc.EqOf(nrc.P(nrc.V("r"), "a"), nrc.P(nrc.V("s"), "k")), nrc.ForIn("t", nrc.V("T"),
				nrc.IfThen(nrc.EqOf(nrc.P(nrc.V("r"), "a"), nrc.P(nrc.V("t"), "k")),
					nrc.SingOf(nrc.Record("v", nrc.P(nrc.V("r"), "v"), "s", nrc.P(nrc.V("s"), "w"), "t", nrc.P(nrc.V("t"), "w"))))))))
	}
	var scope *nrc.Scope
	for name, b := range inputs {
		scope = scope.Bind(name, b)
	}
	q := query()
	if _, err := nrc.Check(q, env); err != nil {
		t.Fatal(err)
	}
	want := nrc.Eval(q, scope).(value.Bag)
	cfg := DefaultConfig()
	cfg.BroadcastLimit = 0
	for _, c := range []struct {
		strat  Strategy
		stages string
	}{
		{Standard, "join#1/L join#1/R join#1 join#2/R join#2"},
		{StandardSkew, "join#1/L join#1/R join#1 skewjoin#2 join#3/R join#3 skewjoin#4"},
	} {
		res := RunProgram([]nrc.Assignment{{Name: "Q", Expr: query()}}, env, inputs, c.strat, cfg, nil)
		if res.Failed() {
			t.Fatalf("%s: %v", c.strat, res.Err)
		}
		var got value.Bag
		for _, r := range res.Output.Collect() {
			got = append(got, value.Tuple(r))
		}
		var stages []string
		for _, sw := range res.Metrics.StageWall {
			stages = append(stages, sw.Stage)
		}
		if len(want) == 0 || !value.Equal(got, want) {
			t.Errorf("%s: %d rows, nrc.Eval %d, or they differ", c.strat, len(got), len(want))
		}
		if res.Metrics.SkippedShuffles != 1 || strings.Join(stages, " ") != c.stages {
			t.Errorf("%s: %d exchanges skipped, stages %v; want 1, %s", c.strat, res.Metrics.SkippedShuffles, stages, c.stages)
		}
	}
}
