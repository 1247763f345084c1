// Command tpch runs one slice of the paper's TPC-H micro-benchmark from the
// command line: pick a query class, nesting level and width, and compare the
// evaluation strategies on generated data. Every strategy executes on the
// parallel pipelined dataflow engine, so the reported runtimes and shuffle
// volumes reflect fused narrow operators and pooled per-partition execution.
package main

import (
	"flag"
	"fmt"
	"log"

	"github.com/trance-go/trance"
	"github.com/trance-go/trance/internal/tpch"
	"github.com/trance-go/trance/internal/value"
)

func main() {
	class := flag.String("class", "nested-to-nested", "flat-to-nested | nested-to-nested | nested-to-flat")
	level := flag.Int("level", 2, "nesting level 0-4")
	wide := flag.Bool("wide", false, "keep all attributes at every level")
	customers := flag.Int("customers", 200, "number of customers")
	skew := flag.Int("skew", 0, "Zipf skew factor 0-4")
	flag.Parse()

	if err := tpch.ValidateLevel(*level); err != nil {
		log.Fatal(err)
	}
	var qc tpch.QueryClass
	switch *class {
	case "flat-to-nested":
		qc = tpch.FlatToNested
	case "nested-to-nested":
		qc = tpch.NestedToNested
	case "nested-to-flat":
		qc = tpch.NestedToFlat
	default:
		log.Fatalf("unknown class %q", *class)
	}

	tables := tpch.Generate(tpch.Config{
		Customers: *customers, OrdersPerCustomer: 6, LinesPerOrder: 4,
		Parts: 100, SkewFactor: *skew, Seed: 1,
	})
	q := tpch.Query(qc, *level, *wide)
	env := tpch.Env(qc, *level, *wide)
	inputs := map[string]value.Bag{}
	if qc == tpch.FlatToNested {
		inputs = tables.Inputs()
	} else {
		inputs["NDB"] = tpch.BuildNested(tables, *level, true)
		inputs["Part"] = tables.Part
	}

	cfg := trance.DefaultConfig()
	fmt.Printf("%s, level %d, wide=%t, skew factor %d\n\n", qc, *level, *wide, *skew)
	for _, strat := range []trance.Strategy{
		trance.Standard, trance.SparkSQLStyle, trance.Shred, trance.ShredUnshred,
	} {
		res := trance.Run(trance.Job{Query: q, Env: env, Inputs: inputs}, strat, cfg)
		// Counting first runs an unshredding route's deferred unshred
		// statement, which Elapsed, Metrics and Err then include.
		var rows int64
		if !res.Failed() {
			rows = res.Output.Count()
		}
		if res.Failed() {
			fmt.Printf("%-14s FAILED: %v\n", strat, res.Err)
			continue
		}
		fmt.Printf("%-14s %8v  rows=%-8d %s\n", strat, res.Elapsed, rows, res.Metrics)
	}
}
