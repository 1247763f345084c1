package dataflow

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"

	"github.com/trance-go/trance/internal/value"
)

func rowsOfInts(pairs ...int64) []Row {
	out := make([]Row, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, Row{pairs[i], pairs[i+1]})
	}
	return out
}

func TestFromRowsRoundTrip(t *testing.T) {
	c := NewContext(4)
	rows := rowsOfInts(1, 10, 2, 20, 3, 30, 4, 40, 5, 50)
	d := c.FromRows(rows)
	if d.Count() != 5 {
		t.Fatalf("count=%d", d.Count())
	}
	if d.NumPartitions() != 4 || d.Context() != c {
		t.Fatalf("parts=%d, context %p of %p", d.NumPartitions(), d.Context(), c)
	}
	if got, want := d.Filter(func(r Row) bool { return r[0].(int64) > 1 }).SizeBytes(), value.SizeRows(rows[1:]); got != want {
		t.Fatalf("SizeBytes=%d, want %d", got, want)
	}
	got := d.CollectSorted()
	if len(got) != 5 || got[0][0].(int64) != 1 || got[4][1].(int64) != 50 {
		t.Fatalf("collect wrong: %v", got)
	}
}

func TestMapFilterFlatMap(t *testing.T) {
	c := NewContext(3)
	d := c.FromRows(rowsOfInts(1, 1, 2, 2, 3, 3, 4, 4))
	doubled := d.Map(func(_ *Arena, r Row) Row { return Row{r[0], r[1].(int64) * 2} })
	evens := doubled.Filter(func(r Row) bool { return r[1].(int64)%4 == 0 })
	if evens.Count() != 2 {
		t.Fatalf("filter count=%d", evens.Count())
	}
	expanded := d.FlatMap(func(a *Arena, out []Row, r Row) []Row {
		for i := range int(r[0].(int64)) {
			nr := a.Row(2)
			nr[0], nr[1] = r[0], int64(i)
			out = append(out, nr)
		}
		return out
	})
	if expanded.Count() != 1+2+3+4 {
		t.Fatalf("flatmap count=%d", expanded.Count())
	}
}

func TestRepartitionColocatesKeys(t *testing.T) {
	c := NewContext(5)
	var rows []Row
	for i := 0; i < 100; i++ {
		rows = append(rows, Row{int64(i % 7), int64(i)})
	}
	d, err := c.FromRows(rows).RepartitionBy("t", []int{0}, false)
	if err != nil {
		t.Fatal(err)
	}
	// Every key must live in exactly one partition.
	where := map[string]int{}
	for pi, p := range d.parts {
		for _, r := range p {
			k := value.Key(r[0])
			if prev, ok := where[k]; ok && prev != pi {
				t.Fatalf("key %v split across partitions %d and %d", r[0], prev, pi)
			}
			where[k] = pi
		}
	}
	if d.Count() != 100 {
		t.Fatalf("rows lost: %d", d.Count())
	}
}

// TestPartitioningGuaranteeSkipsShuffle: a repartition the caller says is
// placed moves nothing, is counted as skipped, and returns the dataset as it
// is; a join whose sides are both placed runs no exchange either.
func TestPartitioningGuaranteeSkipsShuffle(t *testing.T) {
	c := NewContext(4)
	d, err := c.FromRows(rowsOfInts(1, 1, 2, 2, 3, 3)).RepartitionBy("a", []int{0}, false)
	if err != nil {
		t.Fatal(err)
	}
	before := c.Metrics.Snapshot()
	d2, err := d.RepartitionBy("b", []int{0}, true)
	if err != nil {
		t.Fatal(err)
	}
	after := c.Metrics.Snapshot()
	if after.ShuffleRecords != before.ShuffleRecords {
		t.Fatal("second repartition on same key must not shuffle")
	}
	if after.SkippedShuffles != before.SkippedShuffles+1 {
		t.Fatal("skipped shuffle not recorded")
	}
	if d2 != d {
		t.Fatal("no-op repartition should return the same dataset")
	}
	j, err := d.Join("j", d, []int{0}, []int{0}, [2]bool{true, true}, JoinOut{RightWidth: 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	if m := c.Metrics.Snapshot(); m.ShuffleRecords != before.ShuffleRecords || m.SkippedShuffles != after.SkippedShuffles+2 || j.Count() != 3 {
		t.Fatalf("a join of placed sides shuffled %d rows, skipped %d exchanges and gave %d rows",
			m.ShuffleRecords-before.ShuffleRecords, m.SkippedShuffles-after.SkippedShuffles, j.Count())
	}
}

func TestShuffleMetrics(t *testing.T) {
	c := NewContext(4)
	d := c.FromRows(rowsOfInts(1, 1, 2, 2, 3, 3, 4, 4))
	_, err := d.RepartitionBy("t", []int{0}, false)
	if err != nil {
		t.Fatal(err)
	}
	m := c.Metrics.Snapshot()
	if m.ShuffleRecords != 4 {
		t.Fatalf("shuffle records=%d want 4", m.ShuffleRecords)
	}
	if m.ShuffleBytes <= 0 || m.Stages != 1 {
		t.Fatalf("metrics wrong: %+v", m)
	}
	want := fmt.Sprintf("shuffle=%dB/4rec broadcast=0B peakPart=%dB/%drows stages=1 skipped=0",
		m.ShuffleBytes, m.PeakPartition, m.PeakPartitionRows)
	if m.String() != want {
		t.Fatalf("Snapshot.String() = %q, want %q", m.String(), want)
	}
}

func TestInnerJoin(t *testing.T) {
	c := NewContext(4)
	l := c.FromRows([]Row{{int64(1), "a"}, {int64(2), "b"}, {int64(2), "b2"}, {int64(3), "c"}})
	r := c.FromRows([]Row{{int64(2), "X"}, {int64(2), "Y"}, {int64(3), "Z"}, {int64(9), "w"}})
	j, err := l.Join("j", r, []int{0}, []int{0}, [2]bool{}, JoinOut{RightWidth: 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	got := j.CollectSorted()
	// key 2: 2 left × 2 right = 4; key 3: 1; total 5.
	if len(got) != 5 {
		t.Fatalf("join rows=%d want 5: %v", len(got), got)
	}
	for _, row := range got {
		if !value.Equal(row[0], row[2]) {
			t.Fatalf("key mismatch in %v", row)
		}
	}
}

func TestLeftOuterJoinPadsNulls(t *testing.T) {
	c := NewContext(3)
	l := c.FromRows([]Row{{int64(1), "a"}, {int64(2), "b"}})
	r := c.FromRows([]Row{{int64(2), "X"}})
	j, err := l.Join("j", r, []int{0}, []int{0}, [2]bool{}, JoinOut{RightWidth: 2}, true)
	if err != nil {
		t.Fatal(err)
	}
	got := j.CollectSorted()
	if len(got) != 2 {
		t.Fatalf("rows=%d", len(got))
	}
	miss := got[0]
	if miss[0].(int64) != 1 || miss[2] != nil || miss[3] != nil {
		t.Fatalf("outer miss not padded: %v", miss)
	}
}

func TestJoinNullKeysNeverMatch(t *testing.T) {
	c := NewContext(2)
	l := c.FromRows([]Row{{nil, "a"}, {int64(1), "b"}})
	r := c.FromRows([]Row{{nil, "X"}, {int64(1), "Y"}})
	inner, err := l.Join("j", r, []int{0}, []int{0}, [2]bool{}, JoinOut{RightWidth: 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	if inner.Count() != 1 {
		t.Fatalf("null keys must not match, got %d rows", inner.Count())
	}
	outer, err := l.Join("j2", r, []int{0}, []int{0}, [2]bool{}, JoinOut{RightWidth: 2}, true)
	if err != nil {
		t.Fatal(err)
	}
	if outer.Count() != 2 {
		t.Fatalf("outer should keep null-key left row: %d", outer.Count())
	}
}

func TestBroadcastJoinNoShuffleOfLeft(t *testing.T) {
	c := NewContext(4)
	var rows []Row
	for i := 0; i < 50; i++ {
		rows = append(rows, Row{int64(i % 5), int64(i)})
	}
	l := c.FromRows(rows)
	r := c.FromRows([]Row{{int64(0), "z"}, {int64(1), "o"}})
	before := c.Metrics.Snapshot()
	j, err := l.BroadcastJoin("bj", r, []int{0}, []int{0}, JoinOut{RightWidth: 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	after := c.Metrics.Snapshot()
	if after.ShuffleRecords != before.ShuffleRecords {
		t.Fatal("broadcast join must not shuffle")
	}
	if after.BroadcastBytes == before.BroadcastBytes {
		t.Fatal("broadcast bytes not metered")
	}
	if j.Count() != 20 {
		t.Fatalf("join count=%d want 20", j.Count())
	}
}

func TestGroupReduceSum(t *testing.T) {
	c := NewContext(4)
	var rows []Row
	for i := 0; i < 40; i++ {
		rows = append(rows, Row{int64(i % 4), int64(1)})
	}
	g, err := c.FromRows(rows).GroupReduce("g", []int{0}, false, nil, perGroup(func(rs []Row) []Row {
		var s int64
		for _, r := range rs {
			s += r[1].(int64)
		}
		return []Row{{rs[0][0], s}}
	}))
	if err != nil {
		t.Fatal(err)
	}
	got := g.CollectSorted()
	if len(got) != 4 {
		t.Fatalf("groups=%d", len(got))
	}
	for _, r := range got {
		if r[1].(int64) != 10 {
			t.Fatalf("bad sum: %v", r)
		}
	}
}

func TestDistinct(t *testing.T) {
	c := NewContext(4)
	d := c.FromRows([]Row{{int64(1), "a"}, {int64(1), "a"}, {int64(1), "b"}, {int64(2), "a"}})
	u, err := d.Distinct("d", false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if u.Count() != 3 {
		t.Fatalf("distinct=%d want 3", u.Count())
	}
}

func TestUnionAndAddUniqueID(t *testing.T) {
	c := NewContext(3)
	a := c.FromRows(rowsOfInts(1, 1, 2, 2))
	b := c.FromRows(rowsOfInts(3, 3))
	u := a.Union(b)
	if u.Count() != 3 {
		t.Fatalf("union=%d", u.Count())
	}
	withID := u.AddUniqueID(0)
	seen := map[int64]bool{}
	for _, r := range withID.Collect() {
		id := r[2].(int64)
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
}

// TestUnionIsZeroCopy: a union runs neither side's fused chain and copies no
// row until it is consumed; then each side's rows stream through that side's
// own chain, partition by partition, d's before o's, and a chain over the
// union runs once over both. A side that yields nothing is left out: the
// union is the other side itself.
func TestUnionIsZeroCopy(t *testing.T) {
	c := NewContext(2)
	var ran atomic.Int64
	tagged := func(tag int64, rows []Row) *Dataset {
		return c.FromRows(rows).Map(func(a *Arena, r Row) Row {
			ran.Add(1)
			nr := a.Row(len(r) + 1)
			copy(nr, r)
			nr[len(r)] = tag
			return nr
		})
	}
	a, b := tagged(1, rowsOfInts(1, 1, 2, 2, 3, 3, 4, 4)), tagged(2, rowsOfInts(5, 5, 6, 6))
	u := a.Union(b)
	if n := ran.Load(); n != 0 {
		t.Fatalf("Union ran %d rows through the sides' chains", n)
	}
	got, err := u.Map(func(_ *Arena, r Row) Row { return r }).GroupReduce("g", []int{2}, true, nil, func(int, int) Reducer {
		return func(out, g []Row) []Row { return append(out, Row{g[0][2], int64(len(g))}) }
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := ran.Load(); n != 6 {
		t.Fatalf("consuming the union ran %d rows through the sides' chains, want each of 6 once", n)
	}
	if parts := got.parts; len(parts) != 2 || len(parts[0]) != 2 || parts[0][0][0] != int64(1) || parts[0][1][0] != int64(2) {
		t.Fatalf("partition 0 of the union reduced to %v, want side 1's group before side 2's", parts)
	}
	if empty := c.Empty().Map(func(_ *Arena, r Row) Row { return r }); a.Union(empty) != a || empty.Union(b) != b {
		t.Fatal("a union with a dataset yielding nothing is not the other side itself")
	}
}

func TestMemoryCapFailsJob(t *testing.T) {
	c := NewContext(4)
	c.MaxPartitionBytes = 64 // tiny cap
	var rows []Row
	for i := 0; i < 100; i++ {
		rows = append(rows, Row{int64(7), int64(i)}) // all on one partition
	}
	_, err := c.FromRows(rows).RepartitionBy("skewed", []int{0}, false)
	if !errors.Is(err, ErrMemoryExceeded) {
		t.Fatalf("want ErrMemoryExceeded, got %v", err)
	}
}

func TestMemoryCapPassesWhenBalanced(t *testing.T) {
	c := NewContext(4)
	c.MaxPartitionBytes = 4096
	var rows []Row
	for i := 0; i < 100; i++ {
		rows = append(rows, Row{int64(i), int64(i)})
	}
	d, err := c.FromRows(rows).RepartitionBy("ok", []int{0}, false)
	if err != nil {
		t.Fatal(err)
	}
	if d.Count() != 100 {
		t.Fatal("rows lost")
	}
	if c.Metrics.Snapshot().PeakPartition == 0 {
		t.Fatal("peak partition not tracked")
	}
}

func TestSamplePartitionsDeterministic(t *testing.T) {
	c := NewContext(2)
	var rows []Row
	for i := 0; i < 1000; i++ {
		rows = append(rows, Row{int64(i)})
	}
	d := c.FromRows(rows)
	collect := func() map[int][]Row {
		out := map[int][]Row{}
		d.SamplePartitions(10, func(p int, s []Row) {
			cp := make([]Row, len(s))
			copy(cp, s)
			out[p] = cp
		})
		return out
	}
	a, b := collect(), collect()
	for p := range a {
		if len(a[p]) != 10 || len(b[p]) != 10 {
			t.Fatalf("sample size wrong: %d/%d", len(a[p]), len(b[p]))
		}
		for i := range a[p] {
			if !value.Equal(value.Tuple(a[p][i]), value.Tuple(b[p][i])) {
				t.Fatal("sampling must be deterministic")
			}
		}
	}
}

func TestQuickJoinMatchesNestedLoop(t *testing.T) {
	// Property: distributed hash join == naive nested-loop join.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nl, nr := r.Intn(30), r.Intn(30)
		lrows := make([]Row, nl)
		for i := range lrows {
			lrows[i] = Row{int64(r.Intn(5)), int64(i)}
		}
		rrows := make([]Row, nr)
		for i := range rrows {
			rrows[i] = Row{int64(r.Intn(5)), int64(100 + i)}
		}
		c := NewContext(1 + r.Intn(6))
		j, err := c.FromRows(lrows).Join("q", c.FromRows(rrows), []int{0}, []int{0}, [2]bool{}, JoinOut{RightWidth: 2}, false)
		if err != nil {
			return false
		}
		var want int
		for _, l := range lrows {
			for _, rr := range rrows {
				if l[0] == rr[0] {
					want++
				}
			}
		}
		return int(j.Count()) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickGroupPreservesRowMultiset(t *testing.T) {
	// Property: grouping with an identity reducer is a permutation.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(100)
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{int64(r.Intn(7)), int64(r.Intn(3))}
		}
		c := NewContext(1 + r.Intn(8))
		d := c.FromRows(rows)
		g, err := d.GroupReduce("q", []int{0}, false, nil, perGroup(func(rs []Row) []Row { return rs }))
		if err != nil {
			return false
		}
		a := c.FromRows(rows).CollectSorted()
		b := g.CollectSorted()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if !value.Equal(value.Tuple(a[i]), value.Tuple(b[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func ExampleDataset_Join() {
	c := NewContext(2)
	parts := c.FromRows([]Row{{int64(1), "bolt"}, {int64(2), "nut"}})
	orders := c.FromRows([]Row{{int64(1), int64(10)}, {int64(1), int64(5)}})
	j, _ := orders.Join("ex", parts, []int{0}, []int{0}, [2]bool{}, JoinOut{RightWidth: 2}, false)
	for _, r := range j.CollectSorted() {
		fmt.Println(r[1], r[3])
	}
	// Output:
	// 5 bolt
	// 10 bolt
}

// perGroup adapts a stateless group → rows function to GroupReduce's
// per-partition reducer factory.
func perGroup(fn func(rs []Row) []Row) func(rows, groups int) Reducer {
	return func(int, int) Reducer {
		return func(out, group []Row) []Row { return append(out, fn(group)...) }
	}
}

// TestCollectTopIsPrefixOfCollectSorted: for every k, CollectTop(k) is the
// first k rows of the full sort and the exact total — over rows that repeat,
// and rows that tie under the value order yet differ (5 and 5.0, one bag in
// two element orders), which only their Collect order can rank.
func TestCollectTopIsPrefixOfCollectSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var rows []Row
	for i := 0; i < 300; i++ {
		var n value.Value = int64(rng.Intn(6))
		if rng.Intn(2) == 0 {
			n = float64(n.(int64))
		}
		bag := value.Bag{int64(1), int64(2), "x"}
		rng.Shuffle(len(bag), func(a, b int) { bag[a], bag[b] = bag[b], bag[a] })
		rows = append(rows, Row{n, bag, fmt.Sprintf("s%d", rng.Intn(3))})
	}
	for _, parallelism := range []int{1, 3, 8} {
		c := NewContext(parallelism)
		// A pending stage, so the action has to force it.
		d := c.FromRows(rows).Filter(func(r Row) bool { return r[2] != "s9" })
		all := d.CollectSorted()
		if len(all) != len(rows) {
			t.Fatalf("CollectSorted: %d rows, want %d", len(all), len(rows))
		}
		for i := 1; i < len(all); i++ {
			if value.CompareSeq(all[i-1], all[i]) > 0 {
				t.Fatalf("CollectSorted out of order at %d", i)
			}
		}
		for _, k := range []int{-1, 0, 1, 2, 7, 20, 150, len(rows) - 1, len(rows), len(rows) + 1} {
			got, total := d.CollectTop(k)
			want := all
			if k > 0 && k < len(all) {
				want = all[:k]
			}
			if total != len(rows) || len(got) != len(want) {
				t.Fatalf("parallelism %d, CollectTop(%d): %d rows of %d, want %d of %d", parallelism, k, len(got), total, len(want), len(rows))
			}
			for i := range got {
				// Identity, not equality: among tied rows the same one.
				if &got[i][0] != &want[i][0] {
					t.Fatalf("parallelism %d, CollectTop(%d): row %d is %s, the full sort has %s there",
						parallelism, k, i, value.Format(got[i]), value.Format(want[i]))
				}
			}
		}
	}
	if got, total := NewContext(4).Empty().CollectTop(5); len(got) != 0 || total != 0 {
		t.Fatalf("CollectTop on an empty dataset: %d rows, total %d", len(got), total)
	}
}
