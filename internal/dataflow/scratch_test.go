package dataflow

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"github.com/trance-go/trance/internal/value"
)

// sumReducer emits one row per group: its key, the sum of column 1 and the
// group's size.
func sumReducer(int, int) Reducer {
	return func(out, group []Row) []Row {
		var s int64
		for _, r := range group {
			s += r[1].(int64)
		}
		return append(out, Row{group[0][0], s, int64(len(group))})
	}
}

// scratchJob runs every wide operator that recycles scratch over inputs drawn
// from seed k, and returns each result's rows in the value order.
func scratchJob(k int) ([][]Row, error) {
	rng := rand.New(rand.NewSource(int64(k)))
	left := make([]Row, 200+rng.Intn(300))
	for i := range left {
		left[i] = Row{int64(rng.Intn(40)), int64(i), fmt.Sprintf("k%d-%d", k, i)}
	}
	right := make([]Row, 100+rng.Intn(100))
	for i := range right {
		var key value.Value = int64(rng.Intn(50))
		if i%17 == 0 {
			key = nil
		}
		right[i] = Row{key, int64(k*1000 + i)}
	}
	c := NewContext(4)
	odd := func(r Row) bool { return r[1].(int64)%2 == 1 }
	var out [][]Row
	add := func(d *Dataset, err error) error {
		if err != nil {
			return err
		}
		out = append(out, d.CollectSorted())
		return nil
	}
	shuffled, err := c.FromRows(right).RepartitionBy("r", []int{0}, false)
	for _, step := range []func() (*Dataset, error){
		func() (*Dataset, error) { return shuffled, err },
		func() (*Dataset, error) { return c.FromRows(left).GroupReduce("g", []int{0}, false, sumReducer) },
		func() (*Dataset, error) {
			return c.FromRows(left).Filter(odd).GroupReduce("gl", []int{0}, true, sumReducer)
		},
		func() (*Dataset, error) {
			return c.FromRows(left).Filter(odd).Join("j", c.FromRows(right), []int{0}, []int{0}, [2]bool{}, JoinOut{RightWidth: 2}, true)
		},
		func() (*Dataset, error) {
			l, err := c.FromRows(left).RepartitionBy("l", []int{0}, false)
			if err != nil {
				return nil, err
			}
			return l.Join("jp", shuffled, []int{0}, []int{0}, [2]bool{true, false}, JoinOut{RightWidth: 2}, false)
		},
		func() (*Dataset, error) {
			return c.FromRows(left).BroadcastJoin("b", c.FromRows(right), []int{0}, []int{0}, JoinOut{RightWidth: 2}, false)
		},
	} {
		if err := add(step()); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// TestScratchPoolSafety: jobs on many goroutines share the scratch pools, and
// every result equals the same job's serial run.
func TestScratchPoolSafety(t *testing.T) {
	const workers, rounds = 8, 50
	want := make([][][]Row, workers)
	for k := range want {
		var err error
		if want[k], err = scratchJob(k); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				got, err := scratchJob(k)
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.EqualFunc(got, want[k], func(a, b []Row) bool {
					return slices.EqualFunc(a, b, func(x, y Row) bool { return value.CompareSeq(x, y) == 0 })
				}) {
					t.Errorf("job %d round %d differs from its serial run", k, round)
					return
				}
			}
		}(k)
	}
	wg.Wait()
}

// TestWideOperatorsLeaveTheirInput: a local Γ and a join placed on both sides
// read the caller's partitions and carried hashes, and release neither.
func TestWideOperatorsLeaveTheirInput(t *testing.T) {
	c := NewContext(4)
	rows := benchRows(2_000)
	left, err := c.FromRows(rows).RepartitionBy("l", []int{0}, false)
	if err != nil {
		t.Fatal(err)
	}
	right, err := c.FromRows(rows[:500]).RepartitionBy("r", []int{0}, false)
	if err != nil {
		t.Fatal(err)
	}
	type snapshot struct {
		parts  [][]Row
		hashes [][]uint64
	}
	take := func(d *Dataset) snapshot {
		s := snapshot{parts: make([][]Row, len(d.parts)), hashes: make([][]uint64, len(d.hashes))}
		for i := range d.parts {
			s.parts[i] = slices.Clone(d.parts[i])
			s.hashes[i] = slices.Clone(d.hashes[i])
		}
		return s
	}
	same := func(d *Dataset, s snapshot) bool {
		for i := range s.parts {
			if len(d.parts[i]) != len(s.parts[i]) || !slices.Equal(d.hashes[i], s.hashes[i]) {
				return false
			}
			for j, r := range s.parts[i] {
				if &d.parts[i][j][0] != &r[0] {
					return false
				}
			}
		}
		return true
	}
	l0, r0 := take(left), take(right)
	if _, err := left.GroupReduce("local", []int{0}, true, sumReducer); err != nil {
		t.Fatal(err)
	}
	if !same(left, l0) {
		t.Fatal("a local GroupReduce changed its input's partitions or hashes")
	}
	if _, err := left.Join("placed", right, []int{0}, []int{0}, [2]bool{true, true}, JoinOut{RightWidth: 3}, false); err != nil {
		t.Fatal(err)
	}
	if !same(left, l0) || !same(right, r0) {
		t.Fatal("a join placed on both sides changed an input's partitions or hashes")
	}
}

// TestReleasedRowBufferIsZeroed: a released row buffer pins no row, and the
// next get of its class hands out NULL cells.
func TestReleasedRowBufferIsZeroed(t *testing.T) {
	b := rowScratch.get(100)
	b = b[:cap(b)]
	for i := range b {
		b[i] = Row{int64(i)}
	}
	rowScratch.put(b)
	for i, r := range b {
		if r != nil {
			t.Fatalf("released buffer still holds row %d", i)
		}
	}
	for i, r := range rowScratch.get(100) {
		if r != nil {
			t.Fatalf("got buffer holds row %d", i)
		}
	}
}

// TestWarmOperatorsReuseScratch pins the recycling: with the collector off so
// the pools keep what they are given, a second identical GroupReduce or
// shuffle join allocates a fraction of the bytes the first did.
func TestWarmOperatorsReuseScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
	allocated := func(fn func() error) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	rows, right := benchRows(20_000), benchRows(5_000)
	reduce := func() error {
		_, err := NewContext(8).FromRows(rows).GroupReduce("g", []int{0}, false, sumReducer)
		return err
	}
	join := func() error {
		c := NewContext(8)
		_, err := c.FromRows(rows).Join("j", c.FromRows(right), []int{1}, []int{1}, [2]bool{}, JoinOut{RightWidth: 3}, false)
		return err
	}
	for _, tc := range []struct {
		name    string
		run     func() error
		percent uint64
	}{{"GroupReduce", reduce, 10}, {"Join", join, 60}} {
		// Two collections empty the pools, so the first call runs cold.
		runtime.GC()
		runtime.GC()
		cold := allocated(tc.run)
		warm := allocated(tc.run)
		t.Logf("%s: cold %d B, warm %d B", tc.name, cold, warm)
		if warm*100 > cold*tc.percent {
			t.Errorf("%s: warm call allocated %d B, over %d%% of the cold call's %d B", tc.name, warm, tc.percent, cold)
		}
	}
}
