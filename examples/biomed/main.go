// Command biomed runs the paper's five-step biomedical E2E pipeline
// (Figure 9) on synthetic ICGC-shaped data, comparing the standard and
// shredded routes step by step. The shredded route keeps every intermediate
// result in shredded form between steps; within each step the parallel
// pipelined engine fuses narrow operator chains and runs partitions on its
// bounded worker pool.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"github.com/trance-go/trance"
	"github.com/trance-go/trance/internal/biomed"
)

func main() {
	full := flag.Bool("full", false, "use the full-size dataset")
	flag.Parse()

	cfg := biomed.SmallConfig()
	name := "small"
	if *full {
		cfg = biomed.FullConfig()
		name = "full"
	}
	fmt.Printf("E2E biomedical pipeline, %s dataset (%d samples, %d genes)\n\n",
		name, cfg.Samples, cfg.Genes)

	env := biomed.Env()
	cat := trance.NewCatalog()
	for input, b := range biomed.Generate(cfg) {
		if err := cat.Register(input, env[input], b); err != nil {
			log.Fatal(err)
		}
	}
	sq, err := cat.NewSession(trance.SessionOptions{}).PreparePipeline(biomed.Steps())
	if err != nil {
		log.Fatal(err)
	}
	for _, strat := range []trance.Strategy{trance.SparkSQLStyle, trance.Standard, trance.Shred} {
		res, err := sq.Run(context.Background(), strat)
		if res == nil {
			log.Fatalf("%s: %v", strat, err)
		}
		fmt.Printf("%-12s", strat)
		for i, d := range res.StepElapsed {
			fmt.Printf("  step%d=%v", i+1, d)
		}
		if res.Failed() {
			fmt.Printf("  FAILED at step %d: %v", res.FailedStep+1, res.Err)
		} else {
			fmt.Printf("  rows=%d  %s", res.Output.Count(), res.Metrics)
		}
		fmt.Println()
	}
}
