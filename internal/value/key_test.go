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
