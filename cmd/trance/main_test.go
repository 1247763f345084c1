package main

import (
	"strings"
	"testing"

	"github.com/trance-go/trance"

	"github.com/trance-go/trance/internal/tpch"
)

// TestTPCHJobPlansWithStatistics: the data run and explain generate is
// registered in a catalog, which collects its statistics, so the level-2
// nested-to-nested standard route plans the join to Part as a broadcast and
// places every Γ where its rows lie — a run shuffles nothing, as the route
// tranced serves does.
func TestTPCHJobPlansWithStatistics(t *testing.T) {
	job, cfg := tpchJob(tpch.NestedToNested, 2, false, 30, 0)
	names := job.cat.Names()
	if len(names) != 2 {
		t.Fatalf("catalog holds %v, want NDB and Part", names)
	}
	for _, name := range names {
		if st, ok := job.cat.Stats(name); !ok || st.Rows == 0 {
			t.Fatalf("no statistics for input %s", name)
		}
	}
	var out strings.Builder
	if err := runJob(&out, job, trance.Standard, cfg, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), ", shuffle=0B/0rec ") || strings.Contains(out.String(), "rows=0,") {
		t.Fatalf("run printed\n%s\nwant rows and none shuffled", out.String())
	}
}

// TestRunReportsUnshredding: run's header line on an unshredding route reports
// the shredded statements it ran, and stitching its nested rows moves nothing
// through the engine — the level-2 nested-to-nested shred+unshred run at the
// default scale shuffles exactly what the shred run does — while its runtime
// counts the stitch, which it shows beside it.
func TestRunReportsUnshredding(t *testing.T) {
	job, cfg := tpchJob(tpch.NestedToNested, 2, false, defaultCustomers, 0)
	var out strings.Builder
	if err := runJob(&out, job, trance.ShredUnshred, cfg, 1); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SHRED+UNSHRED: ", " (stitch ", "rows=200, shuffle=221261B/4800rec ", " stages=1 skipped=0\n", "\n   ⟨1, \"Customer#000000001\", {⟨"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("run printed\n%s\nwant it to contain %q", out.String(), want)
		}
	}
}

// TestRunHeaderLines pins run's header line, times aside, on one route of
// each shape: a standard route that broadcasts and places every Γ, a skew
// join, an unshredding route over flat inputs and a shredded route to a flat
// output.
func TestRunHeaderLines(t *testing.T) {
	for _, c := range []struct {
		class tpch.QueryClass
		strat trance.Strategy
		skew  int
		want  []string
	}{
		{tpch.NestedToNested, trance.Standard, 0, []string{"STANDARD: ", "rows=200, shuffle=0B/0rec broadcast=32096B ", " stages=0 skipped=3\n"}},
		{tpch.NestedToNested, trance.ShredSkew, 3, []string{"SHRED-SKEW: ", "rows=200, shuffle=221573B/4800rec ", " stages=1 skipped=0\n"}},
		{tpch.FlatToNested, trance.ShredUnshred, 0, []string{"SHRED+UNSHRED: ", "rows=200, shuffle=0B/0rec ", " stages=0 skipped=0\n"}},
		{tpch.NestedToFlat, trance.Shred, 0, []string{"SHRED: ", "rows=200, shuffle=355200B/10800rec broadcast=400000B ", " stages=3 "}},
	} {
		job, cfg := tpchJob(c.class, 2, false, defaultCustomers, c.skew)
		var out strings.Builder
		if err := runJob(&out, job, c.strat, cfg, 0); err != nil {
			t.Fatalf("%s %s: %v", c.class, c.strat, err)
		}
		for _, want := range c.want {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%s %s skew %d printed\n%s\nwant it to contain %q", c.class, c.strat, c.skew, out.String(), want)
			}
		}
	}
}
