// Command tpch runs one slice of the paper's TPC-H micro-benchmark from the
// command line: pick a query class, nesting level and width, and compare the
// evaluation strategies on generated data. Every strategy executes on the
// parallel pipelined dataflow engine, so the reported runtimes and shuffle
// volumes reflect fused narrow operators and pooled per-partition execution.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

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
	inputs := tables.Inputs()
	if qc != tpch.FlatToNested {
		inputs = map[string]value.Bag{"NDB": tpch.BuildNested(tables, *level, true), "Part": tables.Part}
	}
	// The catalog collects every input's statistics, which the cost model and
	// placement plan from.
	cat := trance.NewCatalog()
	for name, t := range tpch.Env(qc, *level, *wide) {
		if err := cat.Register(name, t, inputs[name]); err != nil {
			log.Fatal(err)
		}
	}
	sq, err := cat.NewSession(trance.SessionOptions{}).PrepareNamed(*class, tpch.Query(qc, *level, *wide))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s, level %d, wide=%t, skew factor %d\n\n", qc, *level, *wide, *skew)
	for _, strat := range []trance.Strategy{trance.Standard, trance.SparkSQLStyle, trance.Shred} {
		res, err := sq.Run(context.Background(), strat)
		if res != nil {
			err = res.Err // the run's own error, without the query label
		}
		if err != nil {
			fmt.Printf("%-14s FAILED: %v\n", strat, err)
			continue
		}
		res = res.Materialized() // time the whole shredded output
		fmt.Printf("%-14s %8v  rows=%-8d %s\n", strat, res.Elapsed, res.Output.Count(), res.Metrics)
		if strat.IsShredded() {
			// The paper's Shred+Unshred is the same run read nested: its
			// runtime adds the stitch, which runs as the rows are read.
			start := time.Now()
			res.Output.CollectSorted()
			fmt.Printf("%-14s %8v  rows=%-8d %s\n", "SHRED+UNSHRED", res.Elapsed+time.Since(start), res.Output.Count(), res.Metrics)
		}
	}
}
