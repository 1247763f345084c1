// Command biomed runs the paper's five-step biomedical E2E pipeline
// (Figure 9) on synthetic ICGC-shaped data, comparing the standard and
// shredded routes step by step. The shredded route keeps every intermediate
// result in shredded form between steps; within each step the parallel
// pipelined engine fuses narrow operator chains and runs partitions on its
// bounded worker pool.
package main

import (
	"flag"
	"fmt"

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
	inputs := biomed.Generate(cfg)
	fmt.Printf("E2E biomedical pipeline, %s dataset (%d samples, %d genes)\n\n",
		name, cfg.Samples, cfg.Genes)

	rcfg := trance.DefaultConfig()
	for _, strat := range []trance.Strategy{trance.SparkSQLStyle, trance.Standard, trance.Shred} {
		res := trance.RunPipeline(biomed.Steps(), biomed.Env(), inputs, strat, rcfg)
		// Counting first runs an unshredding route's deferred unshred
		// statement, which the step times, Metrics and Err then include.
		var rows int64
		if !res.Failed() {
			rows = res.Output.Count()
		}
		fmt.Printf("%-12s", strat)
		for i, d := range res.StepElapsed {
			fmt.Printf("  step%d=%v", i+1, d)
		}
		if res.Failed() {
			fmt.Printf("  FAILED at step %d: %v", res.FailedStep+1, res.Err)
		} else {
			fmt.Printf("  rows=%d  %s", rows, res.Metrics)
		}
		fmt.Println()
	}
}
