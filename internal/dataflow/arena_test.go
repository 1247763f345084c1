package dataflow

import (
	"fmt"
	"testing"

	"github.com/trance-go/trance/internal/value"
)

// TestArenaRows: rows come NULL-filled and full (an append reallocates instead
// of running into the next row), and chunks grow from arenaFirstRows rows to
// arenaMaxRows and no further.
func TestArenaRows(t *testing.T) {
	var a Arena
	first := a.Row(3)
	second := a.Row(3)
	first[0], first[1], first[2] = int64(1), int64(2), int64(3)
	_ = append(first, int64(4))
	if len(second) != 3 || second[0] != nil {
		t.Fatalf("an append to one row reached the next: %v", second)
	}
	if got := a.Row(0); len(got) != 0 {
		t.Fatalf("a zero-width row has %d cells", len(got))
	}

	var sizes []int
	a = Arena{}
	for i := 0; i < 2000; i++ {
		before := len(a.free)
		a.Row(5)
		if len(a.free) > before {
			sizes = append(sizes, (len(a.free)+5)/5)
		}
	}
	if got, want := fmt.Sprint(sizes), "[4 8 16 32 64 128 256 256 256 256 256 256 256]"; got != want {
		t.Fatalf("chunks of %s rows, want %s", got, want)
	}
}

// projectingJoin is a ⟕ of 1 000 left rows (k, seq) with a build side holding
// every third key, writing (seq, tag, matched): a left copy, a right copy and
// a computed cell.
func projectingJoin() (left []Row, build joinTable, jo JoinOut) {
	var right []Row
	for i := 0; i < 1000; i++ {
		left = append(left, Row{int64(i), int64(i)})
		if i%3 == 0 {
			right = append(right, Row{int64(i), "tag"})
		}
	}
	build.keys, build.rows = NewContext(1).FromPartitions([][]Row{right}).groupPart(0, []int{0}, true)
	jo = JoinOut{RightWidth: 2, Cols: []int{1, 3, -1}, Eval: []func(Row) value.Value{
		2: func(lr Row) value.Value { return lr[2] != nil },
	}}
	return left, build, jo
}

// TestJoinWriterProjects: the probe writes Cols over l ++ r — copied cells
// from their side, computed cells from the whole row — and for the miss of an
// outer join the left cells, NULL right cells, and computed cells over the
// NULL-extended row.
func TestJoinWriterProjects(t *testing.T) {
	left, build, jo := projectingJoin()
	w := jo.writer()
	var out []Row
	for _, l := range left {
		out = build.probe(out, l, value.HashCols(l, []int{0}), []int{0}, w, true)
	}
	if len(out) != len(left) {
		t.Fatalf("%d rows, want %d", len(out), len(left))
	}
	for i, r := range out {
		want := Row{int64(i), nil, false}
		if i%3 == 0 {
			want = Row{int64(i), "tag", true}
		}
		if value.Compare(value.Tuple(r), value.Tuple(want)) != 0 {
			t.Fatalf("row %d = %v, want %v", i, r, want)
		}
	}
	if inner := build.probe(nil, left[1], value.HashCols(left[1], []int{0}), []int{0}, w, false); inner != nil {
		t.Fatalf("an inner join wrote %v for a miss", inner)
	}
	// Cols empty but not nil is a projection to no columns, not l ++ r.
	none := JoinOut{RightWidth: jo.RightWidth, Cols: []int{}}.writer()
	if r := none(left[0], left[0]); len(r) != 0 {
		t.Fatalf("a join that keeps no column wrote %v", r)
	}
}

// TestJoinWriterAllocatesPerChunk: 1 000 probes through a projecting ⟕ cost
// the arena's chunks, not a row each, and nothing for the scratch row.
func TestJoinWriterAllocatesPerChunk(t *testing.T) {
	left, build, jo := projectingJoin()
	hashes := make([]uint64, len(left))
	for i, l := range left {
		hashes[i] = value.HashCols(l, []int{0})
	}
	out := make([]Row, 0, len(left))
	allocs := testing.AllocsPerRun(10, func() {
		w := jo.writer()
		out = out[:0]
		for i, l := range left {
			out = build.probe(out, l, hashes[i], []int{0}, w, true)
		}
	})
	if limit := float64(len(left) / 8); allocs >= limit {
		t.Fatalf("%v allocations for %d probes, want under %v", allocs, len(left), limit)
	}
}

// TestJoinOutRemap: a shuffle join leaves its rows where its exchange on the
// left key put them, and JoinOut.Cols only moves the key to another output
// position — so a local GroupReduce on the key's output position groups as
// an exchanged one does (what plan.Place's rule "a shuffle join is placed on
// LCols, through Outs" rests on).
func TestJoinOutRemap(t *testing.T) {
	c := NewContext(4)
	var left, right []Row
	for i := 0; i < 60; i++ {
		left = append(left, Row{int64(i % 9), int64(i)})
		right = append(right, Row{int64(i % 6), "r"})
	}
	jo := JoinOut{RightWidth: 2, Cols: []int{3, 1, 0}} // (tag, seq, k): the key moves to 2
	j, err := c.FromRows(left).Join("j", c.FromRows(right), []int{0}, []int{0}, [2]bool{}, jo, false)
	if err != nil {
		t.Fatal(err)
	}
	count := perGroup(func(rs []Row) []Row { return []Row{{rs[0][2], int64(len(rs))}} })
	local, err := j.GroupReduce("local", []int{2}, true, count)
	if err != nil {
		t.Fatal(err)
	}
	exchanged, err := j.GroupReduce("exchanged", []int{2}, false, count)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := local.CollectSorted(), exchanged.CollectSorted(); len(got) != 6 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("local groups %v, exchanged %v", got, want)
	}
}
