package runner

import (
	"context"
	"slices"
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
		cfg.Stats = map[string]plan.TableEstimate{}
		for name, typ := range env {
			cfg.Stats[name] = stats.Collect(c.inputs[name], typ.(nrc.BagType), stats.Options{}).Estimate()
		}
		for _, strat := range []Strategy{Standard, StandardSkew} {
			cq, err := Compile(tpch.Query(c.class, 2, false), env, strat, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// The plans as they were before plan.Colocate: every Γ exchanges.
			exchanged := *cq
			exchanged.Stmts = slices.Clone(cq.Stmts)
			for i := range exchanged.Stmts {
				exchanged.Stmts[i].Plan = plan.Fuse(exchanged.Stmts[i].unfused)
			}
			run := func(cq *Compiled) (value.Bag, int64, int64) {
				res := ExecuteInputs(context.Background(), []*Compiled{cq}, c.inputs, NewRunContext(cfg, strat), ExecOptions{})
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
