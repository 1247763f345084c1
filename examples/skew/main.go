// Command skew demonstrates skew-resilient processing (paper Section 5 and
// Figure 8): the narrow two-level nested-to-nested query on increasingly
// skewed TPC-H data, with and without skew-aware operators, under a
// per-worker memory cap that makes skew-oblivious flattening crash. The cap
// is enforced by the pipelined engine wherever partitions materialize —
// shuffle boundaries and in-place flattening — while fused narrow chains
// between them never materialize at all.
package main

import (
	"fmt"

	"github.com/trance-go/trance"
	"github.com/trance-go/trance/internal/tpch"
	"github.com/trance-go/trance/internal/value"
)

func main() {
	q := tpch.Query(tpch.NestedToNested, 2, false)
	env := tpch.Env(tpch.NestedToNested, 2, false)
	strategies := []trance.Strategy{
		trance.Standard, trance.StandardSkew,
		trance.Shred, trance.ShredSkew, trance.ShredUnshredSkew,
	}

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
		for _, b := range inputs {
			total += value.Size(b)
		}
		cfg := trance.DefaultConfig()
		cfg.MaxPartitionBytes = total / 3

		fmt.Printf("\nskew factor %d:\n", factor)
		for _, strat := range strategies {
			res := trance.Run(trance.Job{Query: q, Env: env, Inputs: inputs}, strat, cfg)
			if !res.Failed() {
				// Unshredding runs on first use of the output; its time, bytes
				// and memory-cap failures count.
				res.Output.Count()
			}
			if res.Failed() {
				fmt.Printf("  %-20s FAIL (%v)\n", strat, res.Err)
				continue
			}
			fmt.Printf("  %-20s %8v shuffled=%dKiB\n", strat, res.Elapsed, res.Metrics.ShuffleBytes/1024)
		}
	}
}
