package trance_test

import (
	"context"
	"fmt"
	"io"
	"strings"
	"testing"

	"github.com/trance-go/trance"
	"github.com/trance-go/trance/internal/tpch"
)

// servedRoutes prepares the level-2 TPC-H classes over a catalog loaded as
// `tranced -customers N -skew S` loads it: the flat tables, the nested NDB at
// level 2, bound by name, planned with the catalog's statistics.
func servedRoutes(tb testing.TB, customers, skew int) map[tpch.QueryClass]*trance.SessionQuery {
	tb.Helper()
	tables := tpch.Generate(tpch.Config{Customers: customers, OrdersPerCustomer: 6, LinesPerOrder: 4, Parts: 100, SkewFactor: skew, Seed: 1})
	cat := trance.NewCatalog()
	flat := tpch.Env(tpch.FlatToNested, 0, false)
	for name, bag := range tables.Inputs() {
		if err := cat.Register("tpch/"+strings.ToLower(name), flat[name], bag); err != nil {
			tb.Fatal(err)
		}
	}
	if err := cat.Register("tpch/ndb-l2", tpch.Env(tpch.NestedToNested, 2, false)["NDB"], tpch.BuildNested(tables, 2, true)); err != nil {
		tb.Fatal(err)
	}
	cfg := trance.DefaultConfig()
	out := map[tpch.QueryClass]*trance.SessionQuery{}
	for _, qc := range []tpch.QueryClass{tpch.FlatToNested, tpch.NestedToNested, tpch.NestedToFlat} {
		bindings := map[string]string{}
		for v := range tpch.Env(qc, 2, false) {
			if v == "NDB" {
				bindings[v] = "tpch/ndb-l2"
			} else {
				bindings[v] = "tpch/" + strings.ToLower(v)
			}
		}
		sq, err := cat.NewSession(trance.SessionOptions{Config: &cfg, Bindings: bindings}).PrepareNamed("tpch/"+qc.String(), tpch.Query(qc, 2, false))
		if err != nil {
			tb.Fatal(err)
		}
		out[qc] = sq
	}
	return out
}

// BenchmarkServedReply is what a tranced request for a level-2 route at 300
// customers costs in process: the run plus a reply written by
// Result.WriteJSON, read nested (shred names the shredded route read nested,
// shred+unshred in a reply), on unskewed data and at skew 3, for a 20-row
// reply and for a whole one (limit 0), which forces every deferred
// dictionary. B/op and allocs/op are the figures the nested reply path is
// judged by.
func BenchmarkServedReply(b *testing.B) {
	for _, skew := range []int{0, 3} {
		routes := servedRoutes(b, 300, skew)
		for _, limit := range []int{20, 0} {
			for _, qc := range []tpch.QueryClass{tpch.FlatToNested, tpch.NestedToNested, tpch.NestedToFlat} {
				for _, strat := range []trance.Strategy{trance.Standard, trance.Shred, trance.StandardSkew, trance.ShredSkew, trance.Auto} {
					b.Run(fmt.Sprintf("skew%d/limit%d/%s/%s", skew, limit, qc, strat.CLIName()), func(b *testing.B) {
						b.ReportAllocs()
						for range b.N {
							res, err := routes[qc].Run(context.Background(), strat)
							if err != nil {
								b.Fatal(err)
							}
							if _, _, err := res.WriteJSON(context.Background(), io.Discard, limit, "\n    ", ","); err != nil {
								b.Fatal(err)
							}
						}
					})
				}
			}
		}
	}
}
