package main

import (
	"strconv"
	"strings"
	"testing"

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
	if err := runJob(&out, job, "standard", cfg, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), ", shuffle=0B/0rec ") || strings.Contains(out.String(), "rows=0,") {
		t.Fatalf("run printed\n%s\nwant rows and none shuffled", out.String())
	}
}

// TestRunReportsUnshredding: run's header line under shred+unshred reports
// the shredded statements it ran, and stitching its nested rows moves nothing
// through the engine — the level-2 nested-to-nested shred+unshred run at the
// default scale shuffles exactly what the shred run does, nothing: its one Γ
// reduces where the placed dictionary lies (skipped=1) — while its runtime
// counts the stitch, which it shows beside it.
func TestRunReportsUnshredding(t *testing.T) {
	job, cfg := tpchJob(tpch.NestedToNested, 2, false, defaultCustomers, 0)
	var out strings.Builder
	if err := runJob(&out, job, "shred+unshred", cfg, 1); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SHRED+UNSHRED: ", " (stitch ", "rows=200, shuffle=0B/0rec ", " stages=0 skipped=1\n", "\n   ⟨1, \"Customer#000000001\", {⟨"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("run printed\n%s\nwant it to contain %q", out.String(), want)
		}
	}
}

// TestRunHeaderLines pins run's header line, times aside, on one route of
// each shape: a standard route that broadcasts and places every Γ, a skew
// join, a shredded route over flat inputs read nested and a shredded route to
// a flat output.
func TestRunHeaderLines(t *testing.T) {
	for _, c := range []struct {
		class tpch.QueryClass
		strat string
		skew  int
		want  []string
	}{
		{tpch.NestedToNested, "standard", 0, []string{"STANDARD: ", "rows=200, shuffle=0B/0rec broadcast=32096B ", " stages=0 skipped=3\n"}},
		{tpch.NestedToNested, "shred-skew", 3, []string{"SHRED-SKEW: ", "rows=200, shuffle=0B/0rec ", " stages=0 skipped=1\n"}},
		{tpch.FlatToNested, "shred+unshred", 0, []string{"SHRED+UNSHRED: ", "rows=200, shuffle=0B/0rec ", " stages=0 skipped=0\n"}},
		{tpch.NestedToFlat, "shred", 0, []string{"SHRED: ", "rows=200, shuffle=8864B/200rec broadcast=16000B ", " stages=1 skipped=4\n"}},
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

// runShuffled runs one TPC-H route and returns the bytes its header line says
// it shuffled, and the line.
func runShuffled(t *testing.T, class tpch.QueryClass, level, customers int, strat string) (int64, string) {
	t.Helper()
	job, cfg := tpchJob(class, level, false, customers, 0)
	var out strings.Builder
	if err := runJob(&out, job, strat, cfg, 0); err != nil {
		t.Fatalf("%s L%d %s: %v", class, level, strat, err)
	}
	_, after, ok := strings.Cut(out.String(), ", shuffle=")
	b, _, ok2 := strings.Cut(after, "B/")
	n, err := strconv.ParseInt(b, 10, 64)
	if !ok || !ok2 || err != nil {
		t.Fatalf("%s L%d %s printed %q, want a shuffle=NB field", class, level, strat, out.String())
	}
	return n, out.String()
}

// TestCombinedGammaShipsPartials: at 300 customers, level 2, the
// nested-to-flat routes' exchanged Γ+ combines on its source partitions and
// ships one partial row per (partition, name) — 300 on standard, and 300 on
// shred, whose root-aligned rows of one customer share a partition — instead
// of 7 200 rows (216 000 B before, and 300 000 B in all on shred), while the
// other classes, whose exchanges carry only Γ⊎ rows or none, move exactly
// what they moved before at every level.
func TestCombinedGammaShipsPartials(t *testing.T) {
	if n, out := runShuffled(t, tpch.NestedToFlat, 2, 300, "standard"); n > 15000 {
		t.Errorf("nested-to-flat L2 standard shuffled %d bytes, want at most 15000:\n%s", n, out)
	}
	if n, out := runShuffled(t, tpch.NestedToFlat, 2, 300, "shred"); n > 160000 {
		t.Errorf("nested-to-flat L2 shred shuffled %d bytes, want at most 160000:\n%s", n, out)
	}
	flatToNested := map[int]int64{1: 216000, 2: 587400, 3: 898740, 4: 1211081}
	for level := 1; level <= 4; level++ {
		for _, c := range []struct {
			class tpch.QueryClass
			strat string
			want  int64
		}{
			{tpch.FlatToNested, "standard", flatToNested[level]},
			{tpch.FlatToNested, "shred", 0},
			{tpch.NestedToNested, "standard", 0},
			{tpch.NestedToNested, "shred", 0},
		} {
			if n, out := runShuffled(t, c.class, level, 300, c.strat); n != c.want {
				t.Errorf("%s L%d %s shuffled %d bytes, want %d:\n%s", c.class, level, c.strat, n, c.want, out)
			}
		}
	}
}

// TestShreddedInputsArrivePlaced: each value-shredded dictionary is bound
// hash-placed on its label, so at every level the shredded nested-to-nested
// route's label Γ reduces where its rows lie and the run shuffles nothing,
// and the shredded nested-to-flat route's label joins exchange nothing: below
// the bytes it shuffled when every dictionary was exchanged (the ceilings,
// measured at the default scale).
func TestShreddedInputsArrivePlaced(t *testing.T) {
	exchanged := map[int]int64{1: 271200, 2: 355200, 3: 289005, 4: 287510}
	shuffled := func(class tpch.QueryClass, level int) (int64, string) {
		t.Helper()
		return runShuffled(t, class, level, defaultCustomers, "shred")
	}
	for level := 1; level <= 4; level++ {
		if n, out := shuffled(tpch.NestedToNested, level); n != 0 {
			t.Errorf("nested-to-nested L%d shred shuffled %d bytes, want 0:\n%s", level, n, out)
		}
		if n, out := shuffled(tpch.NestedToFlat, level); n >= exchanged[level] {
			t.Errorf("nested-to-flat L%d shred shuffled %d bytes, want fewer than the %d of exchanged dictionaries:\n%s", level, n, exchanged[level], out)
		}
	}
}

// TestRootAlignedLabelJoinsMoveNothing pins the shredded nested-to-flat
// route at 300 customers, levels 1–4: value shredding mints one customer's
// labels to land on one partition and binds every component placed on its
// label columns, so each label join has both sides placed and moves nothing —
// what it shuffles is its Γ+'s combined partials alone, and what it
// broadcasts is Part alone, no dictionary — and it moves no more than the
// standard route does.
func TestRootAlignedLabelJoinsMoveNothing(t *testing.T) {
	pinned := map[int]int64{1: 46880, 2: 13096, 3: 937, 4: 194}
	for level := 1; level <= 4; level++ {
		n, out := runShuffled(t, tpch.NestedToFlat, level, 300, "shred")
		if n != pinned[level] || !strings.Contains(out, " broadcast=16000B ") {
			t.Errorf("nested-to-flat L%d shred printed\n%s\nwant shuffle=%dB and broadcast=16000B", level, out, pinned[level])
		}
		if std, sout := runShuffled(t, tpch.NestedToFlat, level, 300, "standard"); n > std || !strings.Contains(sout, " broadcast=16000B ") {
			t.Errorf("nested-to-flat L%d shred shuffled %d bytes, standard %d:\n%s", level, n, std, sout)
		}
	}
}

// TestUnshredNameRunsShred: shred+unshred is the shred route read nested, so
// for every class at levels 1–4 the two names print one run's engine metrics
// — shuffled bytes and records, peak partition, stages — and row count; only
// the rows and the runtime, which counts the stitch, differ.
func TestUnshredNameRunsShred(t *testing.T) {
	metrics := func(out string) string {
		_, after, _ := strings.Cut(out, ", rows=")
		line, _, _ := strings.Cut(after, "\n")
		return line
	}
	for _, class := range []tpch.QueryClass{tpch.FlatToNested, tpch.NestedToNested, tpch.NestedToFlat} {
		for level := 1; level <= 4; level++ {
			job, cfg := tpchJob(class, level, false, 60, 0)
			var lines [2]string
			for i, name := range []string{"shred", "shred+unshred"} {
				var out strings.Builder
				if err := runJob(&out, job, name, cfg, 0); err != nil {
					t.Fatalf("%s L%d %s: %v", class, level, name, err)
				}
				lines[i] = metrics(out.String())
			}
			if lines[0] == "" || lines[0] != lines[1] {
				t.Errorf("%s L%d: shred printed rows=%s, shred+unshred rows=%s", class, level, lines[0], lines[1])
			}
		}
	}
}
