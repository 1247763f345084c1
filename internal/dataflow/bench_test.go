package dataflow

import (
	"fmt"
	"testing"

	"github.com/trance-go/trance/internal/value"
)

func benchRows(n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{int64(i % 97), int64(i), fmt.Sprintf("payload-%d", i%13)}
	}
	return rows
}

// BenchmarkShuffle measures the engine's hash repartitioning throughput —
// the dominant cost of every distributed strategy.
func BenchmarkShuffle(b *testing.B) {
	rows := benchRows(50_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewContext(8)
		if _, err := c.FromRows(rows).RepartitionBy("b", []int{0}, false); err != nil {
			b.Fatal(err)
		}
	}
}

// shuffleSchemas are the two row shapes BenchmarkColumnarShuffle repartitions
// and TestWireSizePinsBenchSchemas pins: "mixed" (int64/float64/string/bool —
// against a value.SizeRows walk the typed encoding saves the per-row tuple
// framing and bit-packs the bools) and "flags" (two int64s and six bools — the
// flag-heavy shape where bit-packing one-eighth-sizes most of the row).
func shuffleSchemas() []struct {
	name string
	rows []Row
} {
	mixed := make([]Row, 50_000)
	for i := range mixed {
		mixed[i] = Row{
			int64(i % 211),
			int64(i),
			float64(i) / 7,
			fmt.Sprintf("payload-%d", i%13),
			i%2 == 0,
			i%3 == 0,
			i%5 == 0,
		}
	}
	flags := make([]Row, 50_000)
	for i := range flags {
		flags[i] = Row{
			int64(i % 211),
			int64(i),
			i%2 == 0,
			i%3 == 0,
			i%5 == 0,
			i%7 == 0,
			i%11 == 0,
			i%13 == 0,
		}
	}
	return []struct {
		name string
		rows []Row
	}{{"mixed", mixed}, {"flags", flags}}
}

// BenchmarkColumnarShuffle measures a typed-key repartition of both schemas,
// reporting the metered ShuffleBytes per op (the typed wire encoding's size)
// alongside time and allocations.
func BenchmarkColumnarShuffle(b *testing.B) {
	for _, s := range shuffleSchemas() {
		b.Run("schema="+s.name, func(b *testing.B) {
			b.ReportAllocs()
			var bytes int64
			for i := 0; i < b.N; i++ {
				c := NewContext(8)
				d, err := c.FromRows(s.rows).RepartitionBy("b", []int{0}, false)
				if err != nil {
					b.Fatal(err)
				}
				if d.Count() != int64(len(s.rows)) {
					b.Fatal("wrong count")
				}
				bytes = c.Metrics.Snapshot().ShuffleBytes
			}
			b.ReportMetric(float64(bytes), "shuffle-B/op")
		})
	}
}

// benchJoin joins 20 000 × 5 000 benchRows on one column.
func benchJoin(b *testing.B, col int) {
	left := benchRows(20_000)
	right := benchRows(5_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewContext(8)
		l := c.FromRows(left)
		r := c.FromRows(right)
		if _, err := l.Join("b", r, []int{col}, []int{col}, [2]bool{}, JoinOut{RightWidth: 3}, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHashJoin measures the build-probe equi-join on a unique key: two
// shuffles, 5 000 build keys, 20 000 probes, 5 000 output rows — the table,
// not the output, is what it times.
func BenchmarkHashJoin(b *testing.B) { benchJoin(b, 1) }

// BenchmarkHashJoinFanout joins on i % 97: ~52 build rows per key and ~1 M
// output rows, so it times allocating the output, not build or probe.
func BenchmarkHashJoinFanout(b *testing.B) { benchJoin(b, 0) }

// BenchmarkBroadcastJoin measures the shuffle-free broadcast variant used
// for small inputs and skewed heavy keys.
func BenchmarkBroadcastJoin(b *testing.B) {
	left := benchRows(20_000)
	right := benchRows(500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewContext(8)
		l := c.FromRows(left)
		r := c.FromRows(right)
		if _, err := l.BroadcastJoin("b", r, []int{0}, []int{0}, JoinOut{RightWidth: 3}, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJoinProject is BenchmarkBroadcastJoin writing a projection in the
// probe: two copied columns and a computed one per match, cut from the arena.
func BenchmarkJoinProject(b *testing.B) {
	left := benchRows(20_000)
	right := benchRows(500)
	jo := JoinOut{RightWidth: 3, Cols: []int{1, 5, -1}, Eval: []func(Row) value.Value{
		2: func(lr Row) value.Value { return lr[0] == lr[3] },
	}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewContext(8)
		if _, err := c.FromRows(left).BroadcastJoin("b", c.FromRows(right), []int{0}, []int{0}, jo, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNarrowChain runs narrowChain's three operators the way the executor
// writes them: every output row cut from the stage's arena.
func BenchmarkNarrowChain(b *testing.B) {
	rows := benchRows(50_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewContext(8).FromRows(rows).
			Map(func(a *Arena, r Row) Row {
				nr := a.Row(3)
				nr[0], nr[1], nr[2] = r[0], r[1].(int64)%7, r[2]
				return nr
			}).
			Filter(func(r Row) bool { return r[1].(int64)%2 == 0 }).
			Map(func(a *Arena, r Row) Row {
				nr := a.Row(2)
				copy(nr, r)
				return nr
			})
		if d.Count() == 0 {
			b.Fatal("no rows")
		}
	}
}

// narrowChain applies the benchmark's three-operator narrow chain to d.
func narrowChain(d *Dataset) *Dataset {
	return d.
		Map(func(_ *Arena, r Row) Row { return Row{r[0], r[1].(int64) * 3, r[2]} }).
		Filter(func(r Row) bool { return r[1].(int64)%2 == 0 }).
		Map(func(_ *Arena, r Row) Row { return Row{r[0], r[1]} })
}

// BenchmarkNarrowChainFused measures a map→filter→map chain executed the
// pipelined way: one fused pass, no intermediate partitions.
func BenchmarkNarrowChainFused(b *testing.B) {
	rows := benchRows(50_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewContext(8)
		if narrowChain(c.FromRows(rows)).Count() != 25_000 {
			b.Fatal("wrong count")
		}
	}
}

// BenchmarkNarrowChainMaterialized measures the same chain with every
// intermediate forced — how the engine executed before operator fusion.
func BenchmarkNarrowChainMaterialized(b *testing.B) {
	rows := benchRows(50_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewContext(8)
		d := c.FromRows(rows)
		d = d.Map(func(_ *Arena, r Row) Row { return Row{r[0], r[1].(int64) * 3, r[2]} })
		d.force()
		d = d.Filter(func(r Row) bool { return r[1].(int64)%2 == 0 })
		d.force()
		d = d.Map(func(_ *Arena, r Row) Row { return Row{r[0], r[1]} })
		d.force()
		if d.Count() != 25_000 {
			b.Fatal("wrong count")
		}
	}
}

// BenchmarkFusedShuffle measures a narrow chain flowing straight into a
// shuffle — the map side consumes the fused chain without materializing the
// pre-shuffle dataset.
func BenchmarkFusedShuffle(b *testing.B) {
	rows := benchRows(50_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewContext(8)
		if _, err := narrowChain(c.FromRows(rows)).RepartitionBy("b", []int{0}, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupReduce measures key-based reduction (the engine primitive
// under Γ⊎ and Γ+).
func BenchmarkGroupReduce(b *testing.B) {
	rows := benchRows(50_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewContext(8)
		_, err := c.FromRows(rows).GroupReduce("b", []int{0}, false, nil, perGroup(func(rs []Row) []Row {
			var s int64
			for _, r := range rs {
				s += r[1].(int64)
			}
			return []Row{{rs[0][0], s}}
		}))
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCombinedGroupReduce measures the map-side combiner against the
// plain exchange on an int sum: with all-distinct keys, where combining
// groups every row once more and ships as many, and with each key on 8
// neighbouring rows (one source partition), where it ships an eighth.
func BenchmarkCombinedGroupReduce(b *testing.B) {
	sum := func(int, int) Reducer {
		return func(out, group []Row) []Row {
			var s int64
			for _, r := range group {
				s += r[1].(int64)
			}
			return append(out, Row{group[0][0], s})
		}
	}
	for _, repeat := range []int{1, 8} {
		rows := make([]Row, 48_000)
		for i := range rows {
			rows[i] = Row{int64(i / repeat), int64(i)}
		}
		for _, combined := range []bool{false, true} {
			var combine *Combiner
			if combined {
				combine = &Combiner{Fold: sum, Merge: sum}
			}
			b.Run(fmt.Sprintf("keys=1in%d/combined=%t", repeat, combined), func(b *testing.B) {
				b.ReportAllocs()
				var shipped int64
				for i := 0; i < b.N; i++ {
					c := NewContext(8)
					if _, err := c.FromRows(rows).GroupReduce("b", []int{0}, false, combine, sum); err != nil {
						b.Fatal(err)
					}
					shipped = c.Metrics.ShuffleRecords.Load()
				}
				b.ReportMetric(float64(shipped), "shipped/op")
			})
		}
	}
}

// BenchmarkCollectTop is the driver side of a limit=20 reply over a 10 000
// row result: the bounded heap against the full sort it replaced.
func BenchmarkCollectTop(b *testing.B) {
	rows := make([]Row, 10_000)
	for i := range rows {
		rows[i] = Row{int64((i * 7919) % 10_007), fmt.Sprintf("name-%d", i%101), float64(i) / 3}
	}
	d := NewContext(8).FromRows(rows)
	for _, k := range []int{20, 0} {
		name := fmt.Sprintf("k=%d", k)
		if k == 0 {
			name = "full-sort"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got, total := d.CollectTop(k); total != len(rows) || k > 0 && len(got) != k {
					b.Fatalf("%d rows of %d", len(got), total)
				}
			}
		})
	}
}
