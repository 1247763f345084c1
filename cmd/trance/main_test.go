package main

import (
	"github.com/trance-go/trance"
	"testing"

	"github.com/trance-go/trance/internal/tpch"
)

// TestTPCHJobPlansWithStatistics: the data run and explain generate comes with
// its statistics, so the level-2 nested-to-nested standard route plans the
// join to Part as a broadcast and places every Γ where its rows lie — a run
// shuffles nothing, as the route served from a catalog does.
func TestTPCHJobPlansWithStatistics(t *testing.T) {
	job, cfg := tpchJob(tpch.NestedToNested, 2, false, 30, 0)
	if len(cfg.Stats) != len(job.Env) {
		t.Fatalf("statistics for %d of %d inputs", len(cfg.Stats), len(job.Env))
	}
	res := trance.Run(job, trance.Standard, cfg)
	if res.Failed() {
		t.Fatal(res.Err)
	}
	if res.Output.Count() == 0 || res.Metrics.ShuffleBytes != 0 {
		t.Fatalf("%d rows, %d bytes shuffled, want rows and none shuffled", res.Output.Count(), res.Metrics.ShuffleBytes)
	}
}
