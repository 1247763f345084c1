// Command skew demonstrates skew-resilient processing (paper Section 5 and
// Figure 8): the narrow two-level nested-to-nested query on increasingly
// skewed TPC-H data, with and without skew-aware operators, under a
// per-worker memory cap that makes skew-oblivious flattening crash. The cap
// is enforced by the pipelined engine wherever partitions materialize —
// shuffle boundaries and in-place flattening — while fused narrow chains
// between them never materialize at all.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/trance-go/trance"
	"github.com/trance-go/trance/internal/tpch"
	"github.com/trance-go/trance/internal/value"
)

func main() {
	env := tpch.Env(tpch.NestedToNested, 2, false)
	strategies := []trance.Strategy{trance.Standard, trance.StandardSkew, trance.Shred, trance.ShredSkew}

	fmt.Println("nested-to-nested (narrow, 2 levels) under a per-worker memory cap")
	for factor := 0; factor <= 4; factor++ {
		tables := tpch.Generate(tpch.Config{
			Customers: 150, OrdersPerCustomer: 6, LinesPerOrder: 4,
			Parts: 100, SkewFactor: factor, Seed: 1,
		})
		inputs := map[string]value.Bag{
			"NDB":  tpch.BuildNested(tables, 2, true),
			"Part": tables.Part,
		}
		var total int64
		cat := trance.NewCatalog()
		for name, b := range inputs {
			total += value.Size(b)
			if err := cat.Register(name, env[name], b); err != nil {
				log.Fatal(err)
			}
		}
		cfg := trance.DefaultConfig()
		cfg.MaxPartitionBytes = total / 3
		sq, err := cat.NewSession(trance.SessionOptions{Config: &cfg}).PrepareNamed("nested-to-nested", tpch.Query(tpch.NestedToNested, 2, false))
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("\nskew factor %d:\n", factor)
		for _, strat := range strategies {
			res, err := sq.Run(context.Background(), strat)
			if res != nil {
				err = res.Err // the run's own error, without the query label
			}
			if err != nil {
				fmt.Printf("  %-20s FAIL (%v)\n", strat, err)
				continue
			}
			res = res.Materialized() // time the whole shredded output
			fmt.Printf("  %-20s %8v shuffled=%dKiB\n", strat, res.Elapsed, res.Metrics.ShuffleBytes/1024)
			if strat == trance.ShredSkew {
				// SHRED+UNSHRED-SKEW is the same run read nested: it shuffles
				// what SHRED-SKEW does, and its runtime adds the stitch.
				start := time.Now()
				res.Output.CollectSorted()
				fmt.Printf("  %-20s %8v shuffled=%dKiB\n", "SHRED+UNSHRED-SKEW", res.Elapsed+time.Since(start), res.Metrics.ShuffleBytes/1024)
			}
		}
	}
}
