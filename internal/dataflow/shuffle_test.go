package dataflow

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"github.com/trance-go/trance/internal/value"
)

// refWireSize is the meter's independent reference: a direct scan per column.
// The buffer is as wide as its widest row, and a cell past the end of a
// narrower row is NULL. Pass one decides the column's kind from all its
// non-NULL cells (boxed on a non-scalar cell or two scalar kinds, all-NULL
// has none); pass two applies the documented wire-size formula.
func refWireSize(rows []Row) int64 {
	scalarKind := func(v value.Value) kind {
		switch v.(type) {
		case int64:
			return kindInt64
		case float64:
			return kindFloat64
		case string:
			return kindString
		case bool:
			return kindBool
		case value.Date:
			return kindDate
		}
		return kindBoxed
	}
	cell := func(r Row, c int) value.Value {
		if c < len(r) {
			return r[c]
		}
		return nil
	}
	n, width := len(rows), 0
	for _, r := range rows {
		width = max(width, len(r))
	}
	words := int64(8 * ((n + 63) / 64))
	var total int64
	for c := range width {
		k, nonNull := kindBoxed, 0
		for _, r := range rows {
			v := cell(r, c)
			if v == nil {
				continue
			}
			if vk := scalarKind(v); nonNull == 0 {
				k = vk
			} else if vk != k {
				k = kindBoxed
			}
			nonNull++
		}
		if nonNull < n {
			total += words // null bitmap
		}
		if nonNull == 0 {
			continue
		}
		switch k {
		case kindInt64, kindFloat64, kindDate:
			total += int64(8 * n)
		case kindBool:
			total += words
		case kindString:
			total += int64(4 * n)
			for _, r := range rows {
				if s, ok := cell(r, c).(string); ok {
					total += int64(len(s))
				}
			}
		default:
			for _, r := range rows {
				if v := cell(r, c); v != nil {
					total += value.Size(v)
				}
			}
		}
	}
	return total
}

// wordBoundaryRows builds n rows of (int64 with NULLs pinned to bits 63 and
// 64, bool, two-byte string): row counts around the bitmap-word boundaries
// (64, 1024) must round bitmaps to whole words and nothing else.
func wordBoundaryRows(n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		var v value.Value = int64(i)
		if i == 63 || i == 64 {
			v = nil
		}
		rows[i] = Row{v, i%3 == 0, fmt.Sprintf("s%d", i%7)}
	}
	return rows
}

// TestShuffleMetersWireSize drives single-buffer shuffles (one source, one
// target) and checks the metered bytes, run-wide and on the stage's record,
// against hand-computed sizes of the typed wire encoding and against the
// direct-scan reference.
func TestShuffleMetersWireSize(t *testing.T) {
	nulls70 := make([]Row, 70) // spans a bitmap word boundary
	for i := range nulls70 {
		nulls70[i] = Row{nil}
	}
	big := make([]Row, 1024)
	for i := range big {
		big[i] = Row{int64(i), i%2 == 0}
	}
	cases := []struct {
		name  string
		rows  []Row
		typed int64 // expected ShuffleBytes
	}{
		{
			// ints: 3×8 + 1 null word; floats: 3×8 + 1 null word; strings:
			// 3×4 + 5 payload bytes; bools: 1 word.
			name: "typed columns with nulls",
			rows: []Row{
				{int64(1), 2.5, "ab", true},
				{int64(2), nil, "", false},
				{nil, 1.0, "xyz", true},
			},
			typed: (3*8 + 8) + (3*8 + 8) + (3*4 + 5) + 8,
		},
		{
			// No per-row tuple framing, bit-packed bools: 1024×8 + 16 words,
			// against 1024×(4+8+1) for the row walk.
			name:  "int and bool at scale",
			rows:  big,
			typed: 1024*8 + 16*8,
		},
		{
			// A NULL prefix latches onto the first typed cell: 73 ints and a
			// two-word bitmap.
			name:  "all-NULL prefix then int64",
			rows:  append(append([]Row{}, nulls70...), Row{int64(7)}, Row{nil}, Row{int64(9)}),
			typed: 73*8 + 2*8,
		},
		{
			name:  "all-NULL column costs only its bitmap",
			rows:  []Row{{nil}, {nil}, {nil}},
			typed: 8,
		},
		{
			// int64 then string: the column goes boxed, Σ value.Size of the
			// non-NULL cells (8+8 recovered from the counts, then 4+1), plus
			// the null word.
			name:  "kind conflict int64 then string",
			rows:  []Row{{int64(1)}, {int64(2)}, {"x"}, {nil}},
			typed: 8 + 8 + 5 + 8,
		},
		{
			// string then bool: prefix is 4 per cell plus the payload so far.
			name:  "kind conflict string then bool",
			rows:  []Row{{"abc"}, {""}, {true}},
			typed: (4 + 3) + 4 + 1,
		},
		{
			name:  "kind conflict bool then float64",
			rows:  []Row{{true}, {false}, {1.5}},
			typed: 1 + 1 + 8,
		},
		{
			// Non-scalar cells are boxed from the first one: tuple 4+8+5,
			// label 6+(4+8), bag 4+(4+8); the key column is 3 dates.
			name: "non-scalar cells",
			rows: []Row{
				{value.Date(1), value.Tuple{int64(1), "t"}},
				{value.Date(2), value.Label{Site: 1, Payload: value.Tuple{int64(2)}}},
				{value.Date(3), value.Bag{value.Tuple{int64(3)}}},
			},
			typed: 3*8 + (17 + 18 + 16),
		},
		{
			name:  "zero-width rows",
			rows:  []Row{{}, {}},
			typed: 0,
		},
		{
			// Ragged widths: the short row's missing cell is a NULL of the
			// string column, 4×8 ints then 4×4 + 3 payload bytes and a null
			// word.
			name:  "width conflict",
			rows:  []Row{{int64(1), "a"}, {int64(2), "b"}, {int64(3)}, {int64(4), "d"}},
			typed: 4*8 + (4*4 + 3 + 8),
		},
		{
			// A first row narrower than the rest: the meter's columns grow.
			name:  "first row narrowest",
			rows:  []Row{{int64(1)}, {int64(2), true, "xy"}},
			typed: 2*8 + (8 + 8) + (2*4 + 2 + 8),
		},
		// Word boundaries: 8n (+ null words from n=64 on) + bool words + 6n.
		{name: "n=1", rows: wordBoundaryRows(1), typed: 22},
		{name: "n=63", rows: wordBoundaryRows(63), typed: 890},
		{name: "n=64", rows: wordBoundaryRows(64), typed: 912},
		{name: "n=65", rows: wordBoundaryRows(65), typed: 942},
		{name: "n=1023", rows: wordBoundaryRows(1023), typed: 14578},
		{name: "n=1024", rows: wordBoundaryRows(1024), typed: 14592},
		{name: "n=1025", rows: wordBoundaryRows(1025), typed: 14622},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewContext(1)
			var keys []int
			if len(tc.rows[0]) > 0 {
				keys = []int{0}
			}
			out, err := c.FromPartitions([][]Row{tc.rows}).RepartitionBy("m", keys, false)
			if err != nil {
				t.Fatal(err)
			}
			if out.Count() != int64(len(tc.rows)) {
				t.Fatalf("%d rows out, %d in", out.Count(), len(tc.rows))
			}
			if ref := refWireSize(tc.rows); ref != tc.typed {
				t.Fatalf("reference wire size %d, case expects %d", ref, tc.typed)
			}
			var m wireMeter
			if _, mem := m.wireSize(tc.rows); mem != value.SizeRows(tc.rows) {
				t.Fatalf("meter derived %dB in memory, value.SizeRows=%d", mem, value.SizeRows(tc.rows))
			}
			s := c.Metrics.Snapshot()
			if s.ShuffleBytes != tc.typed || s.ShuffleRecords != int64(len(tc.rows)) {
				t.Fatalf("ShuffleBytes=%d ShuffleRecords=%d, want %d/%d",
					s.ShuffleBytes, s.ShuffleRecords, tc.typed, len(tc.rows))
			}
			if len(s.StageWall) != 1 || s.StageWall[0].Stage != "m" || s.StageWall[0].ShuffleBytes != tc.typed {
				t.Fatalf("stage records %+v, want one for m with %dB", s.StageWall, tc.typed)
			}
		})
	}
	if typed, walk := refWireSize(big), value.SizeRows(big); typed >= walk {
		t.Fatalf("typed encoding %dB not smaller than the row walk %dB at 1024 rows", typed, walk)
	}
}

// TestWireSizePinsBenchSchemas pins the metered bytes of the two
// BenchmarkColumnarShuffle schemas (8 partitions, key column 0) — the numbers
// the benchmark has reported since the typed encoding was introduced.
func TestWireSizePinsBenchSchemas(t *testing.T) {
	want := map[string]int64{"mixed": 1_881_506, "flags": 839_936}
	for _, s := range shuffleSchemas() {
		c := NewContext(8)
		if _, err := c.FromRows(s.rows).RepartitionBy("b", []int{0}, false); err != nil {
			t.Fatal(err)
		}
		snap := c.Metrics.Snapshot()
		if snap.ShuffleBytes != want[s.name] {
			t.Fatalf("schema %s: ShuffleBytes=%d, want %d", s.name, snap.ShuffleBytes, want[s.name])
		}
	}
}

// TestShufflePoisonedInputCountsNoStage: a shuffle of a poisoned dataset
// returns its error without counting a stage that never ran.
func TestShufflePoisonedInputCountsNoStage(t *testing.T) {
	c := NewContext(2)
	d := c.FromRows([]Row{{int64(1)}, {int64(2)}}).Map(func(*Arena, Row) Row { panic("boom") }).Force()
	if d.Err() == nil {
		t.Fatal("panicking stage did not poison the dataset")
	}
	if _, err := d.RepartitionBy("k", []int{0}, false); err == nil {
		t.Fatal("RepartitionBy of a poisoned dataset succeeded")
	}
	if s := c.Metrics.Snapshot(); s.Stages != 0 || len(s.StageWall) != 0 {
		t.Fatalf("poisoned shuffles recorded stages=%d wall=%v, want none", s.Stages, s.StageWall)
	}
}

// decodeFuzzRows derives a deterministic row set from a fuzz byte stream:
// width and per-column kind come from the header, cells from the tail, with
// NULLs, negative ints, dates, empty strings, and boxed nested values all
// reachable.
func decodeFuzzRows(data []byte) []Row {
	if len(data) < 2 {
		return nil
	}
	width := 1 + int(data[0])%4
	kinds := make([]byte, width)
	for c := 0; c < width; c++ {
		kinds[c] = data[1+c%max(1, len(data)-1)] % 8
	}
	pos := 1 + width
	next := func() byte {
		if pos >= len(data) {
			pos = 1 + width
			if pos >= len(data) {
				return 0
			}
		}
		b := data[pos]
		pos++
		return b
	}
	nRows := int(next()) % 70
	rows := make([]Row, nRows)
	for i := range rows {
		r := make(Row, width)
		for c := 0; c < width; c++ {
			k := kinds[c]
			if k == 7 { // mixed column: re-draw the kind per cell
				k = next() % 7
			}
			switch sel := next(); k {
			case 0:
				r[c] = nil
			case 1:
				r[c] = int64(sel) - 128 // negative and positive ints
			case 2:
				r[c] = (float64(sel) - 128) / 4
			case 3:
				r[c] = string([]byte{'a' + sel%3})[:int(sel)%2] // "" or one char
			case 4:
				r[c] = sel%2 == 1
			case 5:
				r[c] = value.Date(int64(sel) - 128)
			default:
				r[c] = value.Tuple{int64(sel)} // boxed fallback
			}
		}
		rows[i] = r
	}
	return rows
}

// FuzzShuffleMeter fuzzes a key-based shuffle over generator-shaped rows
// (mixed kinds, NULLs, boxed cells, optionally ragged widths) and asserts row
// conservation (multiset equality), placement = HashCols % P with HashCols
// equal to hash/fnv over the canonical key bytes, and metered bytes — run-wide
// and on the stage's record — equal to the independent reference applied to
// every (source,target) buffer.
// The meter's second result — the in-memory size it derives from the same
// walk — must equal value.SizeRows of the buffer, the recorded partition peak
// the largest value.SizeRows of an output partition, and every carried
// routing hash HashCols of its row.
func FuzzShuffleMeter(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 4, 5, 10, 200, 30, 4, 250, 6})
	f.Add([]byte{0, 0, 9, 1, 2, 3})
	f.Add([]byte{2, 7, 7, 8, 0, 1, 2, 3, 4, 5, 6, 7, 9}) // mixed-kind columns
	f.Add([]byte{1, 1, 66, 1, 2, 3, 4, 5, 6, 7, 8, 9, 250, 251})
	f.Add([]byte{131, 1, 2, 3, 4, 5, 10, 200, 30, 4, 250, 6}) // ragged widths
	f.Fuzz(func(t *testing.T, data []byte) {
		rows := decodeFuzzRows(data)
		if len(rows) == 0 {
			return
		}
		if data[0] >= 128 { // high bit: every fifth row grows a cell
			for i := 4; i < len(rows); i += 5 {
				rows[i] = append(append(Row{}, rows[i]...), nil)
			}
		}
		const p = 3
		keyCols := []int{0}
		c := NewContext(p)
		in := c.FromRows(rows)
		out, err := in.RepartitionBy("f", keyCols, false)
		if err != nil {
			t.Fatal(err)
		}

		seen := map[string]int{}
		for _, r := range rows {
			seen[value.Key(value.Tuple(r))]++
		}
		var peak int64
		for tt, part := range out.parts {
			peak = max(peak, value.SizeRows(part))
			for j, r := range part {
				if got := out.hashes[tt][j]; got != value.HashCols(r, keyCols) {
					t.Fatalf("row %v carried hash %x, HashCols=%x", r, got, value.HashCols(r, keyCols))
				}
				h := fnv.New64a()
				h.Write(value.AppendKey(nil, r[0]))
				if got := value.HashCols(r, keyCols); got != h.Sum64() {
					t.Fatalf("HashCols(%v)=%x, fnv over AppendKey=%x", r, got, h.Sum64())
				}
				if want := int(h.Sum64() % p); want != tt {
					t.Fatalf("row %v in partition %d, hash says %d", r, tt, want)
				}
				seen[value.Key(value.Tuple(r))]--
			}
		}
		for k, n := range seen {
			if n != 0 {
				t.Fatalf("row multiset changed across the shuffle: key %q off by %d", k, n)
			}
		}

		var want int64
		for _, src := range in.parts {
			bufs := make([][]Row, p)
			for _, r := range src {
				tt := value.HashCols(r, keyCols) % p
				bufs[tt] = append(bufs[tt], r)
			}
			for _, buf := range bufs {
				if len(buf) == 0 {
					continue
				}
				want += refWireSize(buf)
				var m wireMeter
				if _, mem := m.wireSize(buf); mem != value.SizeRows(buf) {
					t.Fatalf("meter derived %dB in memory for %v, value.SizeRows=%d", mem, buf, value.SizeRows(buf))
				}
			}
		}
		s := c.Metrics.Snapshot()
		if s.PeakPartition != peak {
			t.Fatalf("PeakPartition=%d, largest output partition walks to %d", s.PeakPartition, peak)
		}
		if s.ShuffleBytes != want || s.ShuffleRecords != int64(len(rows)) {
			t.Fatalf("ShuffleBytes=%d ShuffleRecords=%d, reference %d/%d",
				s.ShuffleBytes, s.ShuffleRecords, want, len(rows))
		}
		if len(s.StageWall) != 1 || s.StageWall[0].ShuffleBytes != want {
			t.Fatalf("stage records %+v, want one with the reference %dB", s.StageWall, want)
		}
	})
}

// TestExchangeOverFromRowsKeepsInputOrder pins what a stable placement relies
// on: FromRows cuts contiguous ranges, and an exchange concatenates its
// buffers in source order, so each target receives its rows in input order,
// with their hashes. A dataset FromPlaced over that stable placement is the
// exchange's output, hashes included.
func TestExchangeOverFromRowsKeepsInputOrder(t *testing.T) {
	const p = 4
	var rows []Row
	for i := range 103 {
		rows = append(rows, Row{int64(i % 13), int64(i)})
	}
	ctx := NewContext(p)
	ex, err := ctx.FromRows(rows).RepartitionBy("x", []int{0}, false)
	if err != nil {
		t.Fatal(err)
	}
	want := &Placed{Cols: []int{0}, Parts: make([][]Row, p), Hashes: make([][]uint64, p)}
	for _, r := range rows {
		h := value.HashCols(r, []int{0})
		want.Parts[h%p] = append(want.Parts[h%p], r)
		want.Hashes[h%p] = append(want.Hashes[h%p], h)
	}
	placed := ctx.FromPlaced(want)
	for i := range p {
		if fmt.Sprint(ex.parts[i]) != fmt.Sprint(want.Parts[i]) || fmt.Sprint(ex.hashes[i]) != fmt.Sprint(want.Hashes[i]) {
			t.Fatalf("target %d received %v, want its rows in input order %v", i, ex.parts[i], want.Parts[i])
		}
		if fmt.Sprint(placed.parts[i]) != fmt.Sprint(ex.parts[i]) || fmt.Sprint(placed.hashes[i]) != fmt.Sprint(ex.hashes[i]) || !slices.Equal(placed.hashCols, ex.hashCols) {
			t.Fatalf("placed partition %d differs from the exchange's", i)
		}
	}
}
