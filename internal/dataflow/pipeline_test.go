package dataflow

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/trance-go/trance/internal/value"
)

// TestNarrowOperatorsAreFusedAndLazy verifies the pipelining contract:
// chained Map/Filter/FlatMap calls accumulate fused stages without running
// anything, and a single action materializes the whole chain in one pass.
func TestNarrowOperatorsAreFusedAndLazy(t *testing.T) {
	c := NewContext(4)
	var calls atomic.Int64
	d := c.FromRows(rowsOfInts(1, 1, 2, 2, 3, 3, 4, 4))
	chained := d.
		Map(func(_ *Arena, r Row) Row { calls.Add(1); return Row{r[0], r[1].(int64) * 10} }).
		Filter(func(r Row) bool { calls.Add(1); return r[1].(int64) >= 20 }).
		Map(func(_ *Arena, r Row) Row { calls.Add(1); return Row{r[0]} })
	if got := len(chained.stages); got != 3 {
		t.Fatalf("pending fused stages = %d, want 3", got)
	}
	if calls.Load() != 0 {
		t.Fatalf("narrow operators ran eagerly: %d calls before any action", calls.Load())
	}
	if chained.Count() != 3 {
		t.Fatalf("count = %d, want 3", chained.Count())
	}
	// 4 map calls + 4 filter calls + 3 surviving second-map calls.
	if calls.Load() != 11 {
		t.Fatalf("fused pass ran %d operator calls, want 11", calls.Load())
	}
	if len(chained.stages) != 0 {
		t.Fatal("action must cache the materialized partitions")
	}
	// A second action must reuse the cache, not recompute.
	_ = chained.Count()
	if calls.Load() != 11 {
		t.Fatalf("second action recomputed the chain: %d calls", calls.Load())
	}
}

// TestShuffleConsumesFusedChain verifies that a map/filter chain feeding a
// shuffle is executed inside the shuffle's map-side tasks: the lazy input
// dataset keeps its original base partitions (nothing materialized between
// the narrow operators and the exchange).
func TestShuffleConsumesFusedChain(t *testing.T) {
	c := NewContext(4)
	d := c.FromRows(rowsOfInts(1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6))
	lazy := d.Map(func(_ *Arena, r Row) Row { return Row{r[0].(int64) % 2, r[1]} }).
		Filter(func(r Row) bool { return r[1].(int64) != 6 })
	out, err := lazy.RepartitionBy("fused", []int{0}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(lazy.stages) != 2 {
		t.Fatal("shuffle must stream the chain, not force the input dataset")
	}
	if out.Count() != 5 {
		t.Fatalf("rows after fused shuffle = %d, want 5", out.Count())
	}
	m := c.Metrics.Snapshot()
	if m.ShuffleRecords != 5 {
		t.Fatalf("metered shuffle records = %d, want post-filter 5", m.ShuffleRecords)
	}
}

// TestWorkerPoolBounded verifies that partition tasks never exceed the
// configured worker budget (the caller counts as one worker), and that
// Workers=1 executes every task sequentially.
func TestWorkerPoolBounded(t *testing.T) {
	for _, workers := range []int{1, 2} {
		c := NewContext(64)
		c.Pool = NewPool(workers)
		var cur, peak atomic.Int64
		rows := make([]Row, 256)
		for i := range rows {
			rows[i] = Row{int64(i)}
		}
		d := c.FromRows(rows).Map(func(_ *Arena, r Row) Row {
			n := cur.Add(1)
			maxInt64(&peak, n)
			for i := 0; i < 1000; i++ { // widen the overlap window
				_ = i
			}
			cur.Add(-1)
			return r
		})
		if d.Count() != 256 {
			t.Fatal("rows lost")
		}
		if peak.Load() > int64(workers) {
			t.Fatalf("observed %d concurrent partition tasks with Workers=%d", peak.Load(), workers)
		}
	}
}

// TestStageWallTimesRecorded verifies per-stage wall-time metering across
// shuffles, joins, and group-reduces.
func TestStageWallTimesRecorded(t *testing.T) {
	c := NewContext(4)
	d := c.FromRows(rowsOfInts(1, 1, 2, 2, 3, 3, 4, 4))
	if _, err := d.RepartitionBy("exchange", []int{0}, false); err != nil {
		t.Fatal(err)
	}
	r := c.FromRows(rowsOfInts(1, 10, 2, 20))
	if _, err := d.Join("probe", r, []int{0}, []int{0}, [2]bool{}, JoinOut{RightWidth: 2}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := d.GroupReduce("gamma", []int{0}, false, perGroup(func(rs []Row) []Row { return rs[:1] })); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, st := range c.Metrics.Snapshot().StageWall {
		seen[st.Stage] = true
	}
	for _, want := range []string{"exchange", "probe", "gamma/reduce"} {
		if !seen[want] {
			t.Fatalf("stage %q missing from wall-time metrics: %v", want, seen)
		}
	}
}

// TestPeakPartitionRowsTracked verifies the row-count sibling of the byte
// peak counter.
func TestPeakPartitionRowsTracked(t *testing.T) {
	c := NewContext(4)
	var rows []Row
	for i := 0; i < 100; i++ {
		rows = append(rows, Row{int64(7), int64(i)}) // one heavy key
	}
	if _, err := c.FromRows(rows).RepartitionBy("skewed", []int{0}, false); err != nil {
		t.Fatal(err)
	}
	if got := c.Metrics.Snapshot().PeakPartitionRows; got != 100 {
		t.Fatalf("peak partition rows = %d, want 100", got)
	}
}

// TestAddUniqueIDDeterministicAcrossReplays verifies that the fused ID stage
// assigns the same IDs on every pass over the same base partitions (the
// pipeline may replay when a lazy dataset is consumed by two operators).
func TestAddUniqueIDDeterministicAcrossReplays(t *testing.T) {
	c := NewContext(3)
	d := c.FromRows(rowsOfInts(1, 1, 2, 2, 3, 3, 4, 4, 5, 5)).AddUniqueID(0)
	collect := func() []Row {
		var out []Row
		for i := range d.parts {
			d.feed(i, func(r Row) { out = append(out, r) })
		}
		return out
	}
	a, b := collect(), collect()
	if len(a) != len(b) {
		t.Fatal("replay changed row count")
	}
	for i := range a {
		if !value.Equal(value.Tuple(a[i]), value.Tuple(b[i])) {
			t.Fatalf("replay changed IDs: %v vs %v", a[i], b[i])
		}
	}
}

// TestParallelismEquivalence verifies that the same chain of narrow and wide
// operators produces identical results at Workers=1/Parallelism=1 and at
// full parallelism — the correctness half of the scaling claim.
func TestParallelismEquivalence(t *testing.T) {
	run := func(parallelism, workers int) []Row {
		c := NewContext(parallelism)
		c.Pool = NewPool(workers)
		var rows []Row
		for i := 0; i < 200; i++ {
			rows = append(rows, Row{int64(i % 13), int64(i)})
		}
		d := c.FromRows(rows).
			Map(func(_ *Arena, r Row) Row { return Row{r[0], r[1].(int64) * 3} }).
			Filter(func(r Row) bool { return r[1].(int64)%2 == 0 })
		g, err := d.GroupReduce("g", []int{0}, false, perGroup(func(rs []Row) []Row {
			var s int64
			for _, r := range rs {
				s += r[1].(int64)
			}
			return []Row{{rs[0][0], s}}
		}))
		if err != nil {
			t.Fatal(err)
		}
		return g.CollectSorted()
	}
	seq := run(1, 1)
	par := run(8, 0)
	if len(seq) != len(par) {
		t.Fatalf("row counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if !value.Equal(value.Tuple(seq[i]), value.Tuple(par[i])) {
			t.Fatalf("row %d differs: %v vs %v", i, seq[i], par[i])
		}
	}
}

// TestBroadcastJoinStreamsLazyLeft verifies the broadcast probe consumes the
// left side's fused chain without materializing it first.
func TestBroadcastJoinStreamsLazyLeft(t *testing.T) {
	c := NewContext(4)
	var rows []Row
	for i := 0; i < 40; i++ {
		rows = append(rows, Row{int64(i % 4), int64(i)})
	}
	lazy := c.FromRows(rows).Filter(func(r Row) bool { return r[0].(int64) < 2 })
	r := c.FromRows([]Row{{int64(0), "z"}, {int64(1), "o"}, {int64(2), "t"}})
	j, err := lazy.BroadcastJoin("bj", r, []int{0}, []int{0}, JoinOut{RightWidth: 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(lazy.stages) != 1 {
		t.Fatal("broadcast join must stream the left chain, not force it")
	}
	if j.Count() != 20 {
		t.Fatalf("join count = %d, want 20", j.Count())
	}
}

// TestNarrowOperatorsAndThePartitioner pins what plan.Place's rules for
// narrow operators rest on: none moves a row out of its partition, so rows an
// exchange placed on a key stay placed, and a local GroupReduce on the key
// after one groups exactly as an exchanged one does. Row counts show the
// operator itself ran.
func TestNarrowOperatorsAndThePartitioner(t *testing.T) {
	cases := []struct {
		name  string
		apply func(*Dataset) *Dataset
		rows  int64
	}{
		{"Map", func(d *Dataset) *Dataset {
			return d.Map(func(_ *Arena, r Row) Row { return Row{r[0], r[1].(int64) * 10} })
		}, 6},
		{"FlatMap", func(d *Dataset) *Dataset { return d.FlatMap(func(r Row) []Row { return []Row{r, r} }) }, 12},
		{"Filter", func(d *Dataset) *Dataset {
			return d.Filter(func(r Row) bool { return r[1].(int64) > 1 })
		}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewContext(3)
			in, err := c.FromRows(rowsOfInts(1, 1, 1, 2, 2, 1, 2, 2, 3, 1, 3, 2)).RepartitionBy("by-key", []int{0}, false)
			if err != nil {
				t.Fatal(err)
			}
			var rows int64
			sum := perGroup(func(rs []Row) []Row {
				atomic.AddInt64(&rows, int64(len(rs)))
				var s int64
				for _, r := range rs {
					s += r[1].(int64)
				}
				return []Row{{rs[0][0], s}}
			})
			before := c.Metrics.Snapshot()
			local, err := tc.apply(in).GroupReduce("local", []int{0}, true, sum)
			if err != nil {
				t.Fatal(err)
			}
			if m := c.Metrics.Snapshot(); rows != tc.rows || m.ShuffleRecords != before.ShuffleRecords || m.SkippedShuffles != before.SkippedShuffles+1 {
				t.Fatalf("local GroupReduce saw %d rows (want %d), shuffled %d, skipped %d", rows, tc.rows, m.ShuffleRecords-before.ShuffleRecords, m.SkippedShuffles-before.SkippedShuffles)
			}
			exchanged, err := tc.apply(in).GroupReduce("exchanged", []int{0}, false, sum)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := local.CollectSorted(), exchanged.CollectSorted(); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("local groups %v, exchanged %v", got, want)
			}
		})
	}
}

// TestCheckMemory verifies the in-place expansion check: it materializes the
// pending chain under a named stage wall, tracks the peak, and fails the job
// once a partition outgrows MaxPartitionBytes.
func TestCheckMemory(t *testing.T) {
	expand := func(r Row) []Row { return []Row{r, r, r, r} }
	c := NewContext(2)
	c.MaxPartitionBytes = 1 << 20
	d := c.FromRows(rowsOfInts(1, 1, 2, 2)).FlatMap(expand)
	if err := d.CheckMemory("unnest#1"); err != nil {
		t.Fatal(err)
	}
	s := c.Metrics.Snapshot()
	if len(s.StageWall) != 1 || s.StageWall[0].Stage != "unnest#1" {
		t.Fatalf("stage wall not recorded: %+v", s.StageWall)
	}
	if s.PeakPartitionRows != 4 || s.PeakPartition <= 0 {
		t.Fatalf("peak not tracked: %dB/%d rows", s.PeakPartition, s.PeakPartitionRows)
	}

	c.MaxPartitionBytes = s.PeakPartition - 1
	err := c.FromRows(rowsOfInts(1, 1, 2, 2)).FlatMap(expand).CheckMemory("unnest#2")
	if !errors.Is(err, ErrMemoryExceeded) {
		t.Fatalf("want ErrMemoryExceeded, got %v", err)
	}
}
