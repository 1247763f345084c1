package dataflow

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
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
	local, err := in().GroupReduce("local", []int{0}, true, nil, sum)
	if err != nil {
		t.Fatal(err)
	}
	mid := c.Metrics.Snapshot()
	if mid.SkippedShuffles != before.SkippedShuffles+1 || mid.ShuffleBytes != 0 || local.NumPartitions() != parts {
		t.Fatalf("local reduce: %d skipped, %d bytes shuffled, %d partitions",
			mid.SkippedShuffles-before.SkippedShuffles, mid.ShuffleBytes, local.NumPartitions())
	}
	exchanged, err := in().GroupReduce("exchanged", []int{0}, false, nil, sum)
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

// TestCombineShipsPartials: GroupReduce with a combiner folds each source
// partition's groups into one partial row, ships those on the group table's
// hashes under a "/combine" stage, and reduces them to the uncombined output
// in the same order — a count and the first row's carry per key, over rows
// that pass a pending narrow stage; Distinct with KeepFirst keeps the same
// rows as without. A combiner that does not fold a group into exactly one
// row fails the run.
func TestCombineShipsPartials(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := make([][]Row, 4)
	for n := range 300 {
		p := rng.Intn(len(src))
		src[p] = append(src[p], Row{int64(rng.Intn(20)), int64(n)})
	}
	// A partial is ⟨key, carry, count⟩; a row counts 1.
	fold := func(partials bool) func(int, int) Reducer {
		return func(int, int) Reducer {
			return func(out, group []Row) []Row {
				var n int64
				for _, r := range group {
					if partials {
						n += r[2].(int64)
					} else {
						n++
					}
				}
				return append(out, Row{group[0][0], group[0][1], n})
			}
		}
	}
	c := NewContext(3)
	in := func() *Dataset { return c.FromPartitions(src).Map(func(_ *Arena, r Row) Row { return r }) }
	plain, err := in().GroupReduce("plain", []int{0}, false, nil, fold(false))
	if err != nil {
		t.Fatal(err)
	}
	before := c.Metrics.Snapshot()
	combined, err := in().GroupReduce("combined", []int{0}, false, &Combiner{Fold: fold(false), Merge: fold(true)}, fold(false))
	if err != nil {
		t.Fatal(err)
	}
	after := c.Metrics.Snapshot()
	if got, want := fmt.Sprint(combined.Collect()), fmt.Sprint(plain.Collect()); got != want {
		t.Fatalf("combined reduce\n%s\nuncombined\n%s", got, want)
	}
	shipped := after.ShuffleRecords - before.ShuffleRecords
	if shipped == 0 || shipped > 4*20 || !slices.ContainsFunc(after.StageWall, func(s StageTime) bool { return s.Stage == "combined/combine" }) {
		t.Fatalf("combined reduce shipped %d rows, stages %+v", shipped, after.StageWall)
	}

	dups := c.FromPartitions(src).Map(func(_ *Arena, r Row) Row { return Row{r[0]} })
	want, err := dups.Distinct("d1", false, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dups.Distinct("d2", false, &Combiner{Fold: KeepFirst, Merge: KeepFirst})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Collect()) != fmt.Sprint(want.Collect()) {
		t.Fatalf("combined dedup %v, uncombined %v", got.Collect(), want.Collect())
	}

	none := func(int, int) Reducer { return func(out, _ []Row) []Row { return out } }
	if _, err := in().GroupReduce("bad", []int{0}, false, &Combiner{Fold: none, Merge: fold(true)}, fold(false)); err == nil {
		t.Fatal("a combiner that drops groups ran without an error")
	}
}

// TestCombineBacksOffWhereKeysDoNotRepeat: a source partition whose keys do
// not repeat ships its rows without folding groups — when no partition's
// keys repeat, as they are, reduced by the plain reducer; beside partitions
// whose keys do, as one partial per row — and either way the output is the
// uncombined one and Seen reports what each partition read and shipped.
func TestCombineBacksOffWhereKeysDoNotRepeat(t *testing.T) {
	count := func(partials bool) func(int, int) Reducer {
		return func(int, int) Reducer {
			return func(out, group []Row) []Row {
				var n int64
				for _, r := range group {
					if partials {
						n += r[1].(int64)
					} else {
						n++
					}
				}
				return append(out, Row{group[0][0], n})
			}
		}
	}
	distinct := func(from int) []Row {
		rows := make([]Row, 200)
		for i := range rows {
			rows[i] = Row{int64(from + i), int64(i)}
		}
		return rows
	}
	repeating := func(from int) []Row {
		rows := make([]Row, 200)
		for i := range rows {
			rows[i] = Row{int64(from + i%10), int64(i)}
		}
		return rows
	}
	for _, c := range []struct {
		name    string
		src     [][]Row
		shipped int64
	}{
		{"no partition repeats", [][]Row{distinct(0), distinct(1000), distinct(2000)}, 600},
		{"one partition does not", [][]Row{distinct(0), repeating(1000), repeating(2000)}, 220},
	} {
		ctx := NewContext(3)
		in := func() *Dataset { return ctx.FromPartitions(c.src).Map(func(_ *Arena, r Row) Row { return r }) }
		plain, err := in().GroupReduce("plain", []int{0}, false, nil, count(false))
		if err != nil {
			t.Fatal(err)
		}
		before := ctx.Metrics.Snapshot().ShuffleRecords
		var read, sent atomic.Int64 // Seen is told from every source partition's task at once
		comb := &Combiner{Fold: count(false), Merge: count(true), Seen: func(rows, shipped int) { read.Add(int64(rows)); sent.Add(int64(shipped)) }}
		combined, err := in().GroupReduce("combined", []int{0}, false, comb, count(false))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprint(combined.Collect()), fmt.Sprint(plain.Collect()); got != want {
			t.Fatalf("%s: combined reduce\n%s\nuncombined\n%s", c.name, got, want)
		}
		if shipped := ctx.Metrics.Snapshot().ShuffleRecords - before; shipped != c.shipped || read.Load() != 600 || sent.Load() != c.shipped {
			t.Fatalf("%s: shipped %d rows, Seen %d→%d, want 600→%d", c.name, shipped, read.Load(), sent.Load(), c.shipped)
		}
	}
}
