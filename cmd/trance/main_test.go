package main

import (
	"strings"
	"testing"

	"github.com/trance-go/trance"

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

// TestRunReportsUnshredding: run's header line on an unshredding route counts
// the unshred plan, which the engine defers to the first use of the output —
// the level-2 nested-to-nested shred+unshred run at the default scale shuffles
// the bytes it did when Execute ran that plan itself.
func TestRunReportsUnshredding(t *testing.T) {
	job, cfg := tpchJob(tpch.NestedToNested, 2, false, defaultCustomers, 0)
	var out strings.Builder
	if err := runJob(&out, job, trance.ShredUnshred, cfg, 1); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SHRED+UNSHRED: ", "rows=200, shuffle=708055B/12122rec ", " stages=5 skipped=2 "} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("run printed\n%s\nwant it to contain %q", out.String(), want)
		}
	}
}
