package dataflow

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/trance-go/trance/internal/value"
)

// TestLocalReduceMatchesExchange: on a co-located input — every group's rows
// in one partition, interleaved with other groups' — the local reduce and the
// exchanged GroupReduce agree bit for bit, float sums included: an exchange
// delivers each group from its one source in feed order, the order the local
// reduce sees. Groups hold ≥ 3 reals whose sum depends on the order, phantom
// rows (NULL presence) and a NULL key; there are more partitions than
// Parallelism, and the rows pass a pending narrow stage first.
func TestLocalReduceMatchesExchange(t *testing.T) {
	const parts = 5
	rng := rand.New(rand.NewSource(3))
	reals := []float64{1e16, 1, -1e16, 0.1, 3, -2.5e15}
	src := make([][]Row, parts)
	var keys []value.Value
	for k := 0; k < 14; k++ {
		keys = append(keys, int64(k))
	}
	keys = append(keys, nil)
	var sums [][]float64 // per group, its reals in feed order
	for i, key := range keys {
		p := i % parts
		var group []Row
		var vals []float64
		for n := 3 + rng.Intn(4); len(group) < n; {
			v := reals[rng.Intn(len(reals))]
			present := value.Value(true)
			if i%4 == 3 || rng.Intn(6) == 0 {
				present = nil // a phantom: registers the group, contributes nothing
			} else {
				vals = append(vals, v)
			}
			group = append(group, Row{key, v, present})
		}
		sums = append(sums, vals)
		// Interleave with the partition's other groups, keeping each group's
		// own order.
		merged := make([]Row, 0, len(src[p])+len(group))
		for len(src[p]) > 0 || len(group) > 0 {
			if len(group) == 0 || len(src[p]) > 0 && rng.Intn(2) == 0 {
				merged, src[p] = append(merged, src[p][0]), src[p][1:]
			} else {
				merged, group = append(merged, group[0]), group[1:]
			}
		}
		src[p] = merged
	}
	// Γ+ with the phantom semantics of exec.nest: a group of phantoms alone
	// yields a NULL marker.
	sum := func(int, int) Reducer {
		return func(out, group []Row) []Row {
			var s value.Value
			for _, r := range group {
				if r[2] == nil {
					continue
				}
				if s == nil {
					s = r[1].(float64)
				} else {
					s = s.(float64) + r[1].(float64)
				}
			}
			return append(out, Row{group[0][0], s})
		}
	}

	c := NewContext(3)
	in := func() *Dataset {
		return c.FromPartitions(src).Map(func(_ *Arena, r Row) Row { return r })
	}
	before := c.Metrics.Snapshot()
	local, err := in().GroupReduce("local", []int{0}, true, sum)
	if err != nil {
		t.Fatal(err)
	}
	mid := c.Metrics.Snapshot()
	if mid.SkippedShuffles != before.SkippedShuffles+1 || mid.ShuffleBytes != 0 || local.NumPartitions() != parts {
		t.Fatalf("local reduce: %d skipped, %d bytes shuffled, %d partitions",
			mid.SkippedShuffles-before.SkippedShuffles, mid.ShuffleBytes, local.NumPartitions())
	}
	exchanged, err := in().GroupReduce("exchanged", []int{0}, false, sum)
	if err != nil {
		t.Fatal(err)
	}
	if c.Metrics.Snapshot().ShuffleBytes == 0 || exchanged.NumPartitions() != 3 {
		t.Fatal("the exchanged reduce moved nothing")
	}

	byKey := func(rows []Row) []Row {
		slices.SortFunc(rows, func(a, b Row) int { return value.Compare(a[0], b[0]) })
		return rows
	}
	got, want := byKey(local.Collect()), byKey(exchanged.Collect())
	if len(got) != len(keys) || len(want) != len(keys) {
		t.Fatalf("%d groups reduced locally, %d exchanged, want %d", len(got), len(want), len(keys))
	}
	markers := 0
	for i := range got {
		g, w := got[i][1], want[i][1]
		if value.Compare(got[i][0], want[i][0]) != 0 || (g == nil) != (w == nil) ||
			g != nil && math.Float64bits(g.(float64)) != math.Float64bits(w.(float64)) {
			t.Fatalf("group %v: local %v, exchanged %v", got[i][0], g, w)
		}
		if g == nil {
			markers++
		}
	}
	// Not vacuous: some group's sum depends on the order of its reals, and
	// some group is phantom-only.
	reordered := false
	for _, vals := range sums {
		var fwd, rev float64
		for j := range vals {
			fwd += vals[j]
			rev += vals[len(vals)-1-j]
		}
		reordered = reordered || fwd != rev
	}
	if !reordered || markers == 0 {
		t.Fatalf("no order-sensitive sum (%t) or no phantom-only group (%d markers): the comparison is vacuous", reordered, markers)
	}
}
