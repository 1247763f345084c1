package value

import (
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// fnvOverKey is the reference Hash64/HashCols are pinned against: the standard
// library's FNV-1a over the materialized AppendKey bytes.
func fnvOverKey(vals ...Value) uint64 {
	h := fnv.New64a()
	for _, v := range vals {
		h.Write(AppendKey(nil, v))
	}
	return h.Sum64()
}

// TestHashMatchesFNVOverAppendKey pins the inline fold to hash/fnv over the
// canonical key encoding for every value kind. Shuffle placement (HashCols)
// and the statistics sketches (Hash64) must not move when the fold changes.
func TestHashMatchesFNVOverAppendKey(t *testing.T) {
	vals := []Value{
		nil,
		true, false,
		int64(0), int64(-1), int64(math.MinInt64), int64(math.MaxInt64), int64(1) << 40,
		0.0, math.Copysign(0, -1), 2.5, -1e300, math.Inf(1), math.Inf(-1), math.NaN(),
		Date(0), Date(-2), MakeDate(2020, 5, 5),
		"", "a", "key", strings.Repeat("long-key-with-bytes/", 40),
		Label{Site: 0, Payload: Tuple{}},
		Label{Site: 3, Payload: Tuple{int64(7), "x", nil}},
		Label{Site: 1, Payload: Tuple{Label{Site: 2, Payload: Tuple{Date(9)}}}},
		Tuple{},
		Tuple{nil},
		Tuple{int64(1), "t"},
		Tuple{Tuple{int64(1), Tuple{"deep", false}}, 2.5, Label{Site: 4, Payload: Tuple{true}}},
	}
	for _, v := range vals {
		if got, want := Hash64(v), fnvOverKey(v); got != want {
			t.Errorf("Hash64(%s) = %x, fnv over AppendKey = %x", Format(v), got, want)
		}
	}
	for _, site := range []int32{0, 1, -3, math.MaxInt32} {
		for _, seq := range []int64{0, 1, -1, 1 << 32, math.MaxInt64, math.MinInt64} {
			if got, want := HashSeqLabel(site, seq), Hash64(Label{Site: site, Payload: Tuple{seq}}); got != want {
				t.Errorf("HashSeqLabel(%d, %d) = %x, Hash64 of the label = %x", site, seq, got, want)
			}
		}
	}
	// Composite keys: every value as a single-column key, then all of them as
	// one wide key, then a permuted projection with a repeated column.
	row := Tuple(vals)
	all := make([]int, len(row))
	for i := range row {
		all[i] = i
		if got, want := HashCols(row, []int{i}), fnvOverKey(row[i]); got != want {
			t.Errorf("HashCols col %d (%s) = %x, want %x", i, Format(row[i]), got, want)
		}
	}
	if got, want := HashCols(row, all), fnvOverKey(vals...); got != want {
		t.Errorf("HashCols over all columns = %x, want %x", got, want)
	}
	if got, want := HashCols(row, []int{5, 0, 5}), fnvOverKey(row[5], row[0], row[5]); got != want {
		t.Errorf("HashCols over [5 0 5] = %x, want %x", got, want)
	}
	if got, want := HashCols(row, nil), fnvOverKey(); got != want {
		t.Errorf("HashCols over no columns = %x, want %x", got, want)
	}
}

// TestHashMatchesFNVRandomFlat runs the same pin over generated flat values
// (the key domain: scalars and nested labels).
func TestHashMatchesFNVRandomFlat(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		row := Tuple{randomFlat(r, 0), randomFlat(r, 0), randomFlat(r, 0)}
		if got, want := HashCols(row, []int{0, 1, 2}), fnvOverKey(row...); got != want {
			t.Fatalf("HashCols(%s) = %x, want %x", Format(row), got, want)
		}
		if got, want := Hash64(row[0]), fnvOverKey(row[0]); got != want {
			t.Fatalf("Hash64(%s) = %x, want %x", Format(row[0]), got, want)
		}
	}
}

// TestHashAllocatesNothing: the fold never materializes the key bytes.
func TestHashAllocatesNothing(t *testing.T) {
	row := Tuple{int64(9), "payload", 2.5, true, Date(3), nil,
		Label{Site: 1, Payload: Tuple{int64(1), "x"}}, Tuple{int64(1), "t"}}
	cols := []int{0, 1, 2, 3, 4, 5, 6, 7}
	if n := testing.AllocsPerRun(100, func() { HashCols(row, cols) }); n != 0 {
		t.Fatalf("HashCols allocated %v times per call", n)
	}
	for _, v := range row {
		if n := testing.AllocsPerRun(100, func() { Hash64(v) }); n != 0 {
			t.Fatalf("Hash64(%s) allocated %v times per call", Format(v), n)
		}
	}
}

// TestHashRejectsBags: bags are not keys, for the hash as for AppendKey.
func TestHashRejectsBags(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Hash64 of a bag did not panic")
		}
	}()
	Hash64(Bag{})
}

// TestEqualColsKinds pins EqualCols on every key kind against the relation it
// replaces, KeyCols(a) == KeyCols(b): kinds never mix (int64 5 ≠ float64 5.0 ≠
// Date 5), floats compare by bit pattern, NULL = NULL, labels compare site
// and payload, tuples compare element-wise with their length.
func TestEqualColsKinds(t *testing.T) {
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1) // another NaN payload
	cases := []struct {
		a, b Value
		want bool
	}{
		{nil, nil, true},
		{nil, int64(0), false},
		{nil, "", false},
		{nil, false, false},
		{true, true, true},
		{true, false, false},
		{false, int64(0), false},
		{int64(5), int64(5), true},
		{int64(5), int64(-5), false},
		{int64(5), 5.0, false},
		{5.0, int64(5), false},
		{int64(5), Date(5), false},
		{Date(5), Date(5), true},
		{Date(5), 5.0, false},
		{MakeDate(2020, 5, 5), MakeDate(2020, 5, 6), false},
		{0.0, 0.0, true},
		{0.0, math.Copysign(0, -1), false},
		{math.NaN(), math.NaN(), true},
		{math.NaN(), nan2, false},
		{math.Inf(1), math.Inf(1), true},
		{math.Inf(1), math.Inf(-1), false},
		{2.5, 2.5, true},
		{"", "", true},
		{"abc", "abc", true},
		{"abc", "ab", false},
		{"ab", "abc", false},
		{"abc", "abd", false},
		{"5", int64(5), false},
		{Label{Site: 1, Payload: Tuple{int64(7)}}, Label{Site: 1, Payload: Tuple{int64(7)}}, true},
		{Label{Site: 1, Payload: Tuple{int64(7)}}, Label{Site: 2, Payload: Tuple{int64(7)}}, false},
		{Label{Site: 1, Payload: Tuple{int64(7)}}, Label{Site: 1, Payload: Tuple{7.0}}, false},
		{Label{Site: 1, Payload: Tuple{int64(7)}}, Label{Site: 1, Payload: Tuple{int64(7), nil}}, false},
		{Label{Site: 0, Payload: Tuple{}}, Tuple{}, false},
		{Label{Site: 3, Payload: Tuple{Label{Site: 2, Payload: Tuple{"x"}}}}, Label{Site: 3, Payload: Tuple{Label{Site: 2, Payload: Tuple{"x"}}}}, true},
		{Label{Site: 3, Payload: Tuple{Label{Site: 2, Payload: Tuple{"x"}}}}, Label{Site: 3, Payload: Tuple{Label{Site: 1, Payload: Tuple{"x"}}}}, false},
		{Tuple{}, Tuple{}, true},
		{Tuple{nil}, Tuple{}, false},
		{Tuple{int64(1), Tuple{"deep", false}}, Tuple{int64(1), Tuple{"deep", false}}, true},
		{Tuple{int64(1), Tuple{"deep", false}}, Tuple{int64(1), Tuple{"deep", true}}, false},
		{Tuple{int64(1), Tuple{"deep", false}}, Tuple{int64(1), Tuple{"deep"}, false}, false},
		{Tuple{int64(1)}, int64(1), false},
	}
	col := []int{0}
	for _, tc := range cases {
		a, b := Tuple{tc.a}, Tuple{tc.b}
		if got := EqualCols(a, col, b, col); got != tc.want {
			t.Errorf("EqualCols(%s, %s) = %t, want %t", Format(tc.a), Format(tc.b), got, tc.want)
		}
		if keys := KeyCols(a, col) == KeyCols(b, col); keys != tc.want {
			t.Errorf("case %s vs %s expects %t but the key strings say %t", Format(tc.a), Format(tc.b), tc.want, keys)
		}
		if tc.want && HashCols(a, col) != HashCols(b, col) {
			t.Errorf("%s = %s but their hashes differ", Format(tc.a), Format(tc.b))
		}
	}

	// Composite keys: column lists pair up position by position, on either
	// side's own layout; lists of different length never match.
	a := Tuple{int64(1), "x", nil, 2.5}
	b := Tuple{2.5, nil, "x", int64(1), int64(1)}
	if !EqualCols(a, []int{0, 1, 2, 3}, b, []int{3, 2, 1, 0}) || !EqualCols(a, []int{0, 0}, b, []int{3, 4}) {
		t.Error("permuted projections of equal keys did not match")
	}
	if EqualCols(a, []int{0, 1}, b, []int{3, 1}) || EqualCols(a, []int{0}, b, []int{3, 4}) || EqualCols(a, nil, b, []int{0}) {
		t.Error("unequal composite keys matched")
	}
	if !EqualCols(a, nil, b, nil) {
		t.Error("the empty key (cross join) must equal itself")
	}
	cols := []int{0, 1, 2, 3}
	if n := testing.AllocsPerRun(100, func() { EqualCols(a, cols, a, cols) }); n != 0 {
		t.Errorf("EqualCols allocated %v times per call", n)
	}
}

// TestEqualColsRejectsBags: bags are not keys, for equality as for AppendKey.
func TestEqualColsRejectsBags(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EqualCols over a bag did not panic")
		}
	}()
	EqualCols(Tuple{Bag{}}, []int{0}, Tuple{Bag{}}, []int{0})
}

// decodeKeyRow derives a row of one to three flat key values from fuzz bytes:
// every scalar kind with its awkward members (±0.0, two NaN payloads, floats
// equal in magnitude to the ints), short strings over a three-letter alphabet
// so prefixes collide, and nested labels and tuples.
func decodeKeyRow(data []byte) Tuple {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	var val func(depth int) Value
	val = func(depth int) Value {
		switch k := next() % 9; {
		case k == 0:
			return nil
		case k == 1:
			return next()%2 == 1
		case k == 2:
			return int64(int8(next()) % 4)
		case k == 3:
			switch b := next() % 8; b {
			case 0:
				return math.Copysign(0, -1)
			case 1:
				return math.NaN()
			case 2:
				return math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
			case 3:
				return math.Inf(1)
			default:
				return float64(int8(b) - 5) // -1..2: collides with the ints
			}
		case k == 4:
			return Date(int8(next()) % 4)
		case k == 5:
			s := make([]byte, next()%4)
			for i := range s {
				s[i] = 'a' + next()%3
			}
			return string(s)
		case k == 6 && depth < 3:
			l := Label{Site: int32(next() % 3), Payload: make(Tuple, next()%3)}
			for i := range l.Payload {
				l.Payload[i] = val(depth + 1)
			}
			return l
		case k == 7 && depth < 3:
			tp := make(Tuple, next()%3)
			for i := range tp {
				tp[i] = val(depth + 1)
			}
			return tp
		default:
			return int64(next() % 2)
		}
	}
	row := make(Tuple, 1+next()%3)
	for i := range row {
		row[i] = val(0)
	}
	return row
}

// FuzzEqualColsMatchesKeyCols: over generated flat rows, EqualCols(a, b) ⇔
// KeyCols(a) == KeyCols(b) on the whole rows and on their first columns, and
// equal keys hash alike — the two facts the group table rests on.
func FuzzEqualColsMatchesKeyCols(f *testing.F) {
	f.Add([]byte{0, 2, 1}, []byte{0, 3, 6})                   // int64 1 vs float64 1.0
	f.Add([]byte{0, 3, 0}, []byte{0, 3, 5})                   // -0.0 vs 0.0
	f.Add([]byte{0, 3, 1}, []byte{0, 3, 2})                   // two NaN payloads
	f.Add([]byte{1, 0, 5, 2, 0, 1}, []byte{1, 0, 5, 2, 0, 1}) // (NULL, "ab") twice
	f.Add([]byte{0, 5, 2, 0, 1}, []byte{0, 5, 3, 0, 1, 2})    // "ab" vs "abc"
	f.Add([]byte{0, 6, 1, 1, 2, 1}, []byte{0, 6, 2, 1, 2, 1}) // labels differing in site
	f.Add([]byte{0, 7, 2, 2, 1, 7, 1, 0}, []byte{0, 7, 2, 2, 1, 7, 1, 0})
	f.Fuzz(func(t *testing.T, x, y []byte) {
		a, b := decodeKeyRow(x), decodeKeyRow(y)
		all := func(r Tuple) []int {
			cols := make([]int, len(r))
			for i := range cols {
				cols[i] = i
			}
			return cols
		}
		for _, p := range [][2][]int{{all(a), all(b)}, {{0}, {0}}} {
			eq := EqualCols(a, p[0], b, p[1])
			if keys := KeyCols(a, p[0]) == KeyCols(b, p[1]); eq != keys {
				t.Fatalf("EqualCols(%s%v, %s%v) = %t, key strings equal = %t", Format(a), p[0], Format(b), p[1], eq, keys)
			}
			if eq && HashCols(a, p[0]) != HashCols(b, p[1]) {
				t.Fatalf("%s%v = %s%v but HashCols differ", Format(a), p[0], Format(b), p[1])
			}
		}
		if !EqualCols(a, all(a), a, all(a)) {
			t.Fatalf("%s is not equal to itself", Format(a))
		}
	})
}
