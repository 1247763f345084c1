package index

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/trance-go/trance/internal/value"
)

// stableSorted is the ordered structure a reflection-based stable sort of the
// (key, position) pairs builds: the reference the slices-based sort must match.
func stableSorted(vals []value.Value) ([]value.Value, [][]int32) {
	type kp struct {
		k value.Value
		p int32
	}
	var pairs []kp
	for i, v := range vals {
		if v != nil {
			pairs = append(pairs, kp{v, int32(i)})
		}
	}
	sort.SliceStable(pairs, func(i, j int) bool { return value.Compare(pairs[i].k, pairs[j].k) < 0 })
	var keys []value.Value
	var pos [][]int32
	for _, e := range pairs {
		if n := len(keys); n > 0 && value.Compare(keys[n-1], e.k) == 0 {
			pos[n-1] = append(pos[n-1], e.p)
			continue
		}
		keys = append(keys, e.k)
		pos = append(pos, []int32{e.p})
	}
	return keys, pos
}

// TestSortKeysMatchesStableSort: a shuffled column with duplicate keys, NULLs
// and int/real keys that compare equal builds the same distinct keys (each
// the key of its first row) and position lists as the stable sort.
func TestSortKeysMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]value.Value, 500)
	for i := range vals {
		switch n := rng.Intn(40); {
		case n < 3:
			vals[i] = nil
		case n%2 == 0:
			vals[i] = int64(n)
		default:
			vals[i] = float64(n-1) + []float64{0, 0.5}[rng.Intn(2)]
		}
	}
	rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	ci := mustBuild(t, "c", vals)
	keys, pos := stableSorted(vals)
	s := ci.parts[0].sorted
	if !reflect.DeepEqual(s.keys, keys) {
		t.Fatalf("keys differ from the stable sort:\n got %v\nwant %v", s.keys, keys)
	}
	if len(s.start) != len(keys)+1 {
		t.Fatalf("%d offsets for %d keys", len(s.start), len(keys))
	}
	for i := range pos {
		if got := s.pos[s.start[i]:s.start[i+1]]; !reflect.DeepEqual(got, pos[i]) {
			t.Fatalf("key %v: positions %v, want %v", keys[i], got, pos[i])
		}
	}
}

// TestConcatMatchesBuild: an index concatenated from parts over consecutive
// runs of a column answers every lookup like one built over the whole column,
// and counts the same rows, NULLs and distinct keys.
func TestConcatMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := make([]value.Value, 300)
	for i := range vals {
		if rng.Intn(10) == 0 {
			continue
		}
		vals[i] = int64(rng.Intn(60))
		if rng.Intn(3) == 0 {
			vals[i] = float64(rng.Intn(60)) / 2
		}
	}
	whole := mustBuild(t, "c", vals)
	var parts []*ColumnIndex
	for lo := 0; lo < len(vals); {
		hi := min(len(vals), lo+1+rng.Intn(80))
		parts = append(parts, mustBuild(t, "c", vals[lo:hi]))
		lo = hi
	}
	cat, err := Concat(parts...)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Len() != whole.Len() || cat.Nulls() != whole.Nulls() || cat.Keys() != whole.Keys() {
		t.Fatalf("concat len/nulls/keys %d/%d/%d, whole %d/%d/%d",
			cat.Len(), cat.Nulls(), cat.Keys(), whole.Len(), whole.Nulls(), whole.Keys())
	}
	spans := [][]Span{
		{Point(int64(7))}, {Point(float64(7))}, {Point(float64(3.5))},
		{{Lo: int64(10), LoInc: true, Hi: float64(20.5)}},
		{Point(int64(1)), {Lo: int64(50)}, Point(int64(55))},
		{{}},
	}
	for _, ss := range spans {
		if got, want := cat.Lookup(ss), whole.Lookup(ss); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: concat %v, whole %v", FormatSpans(ss), got, want)
		}
	}
}

// TestConcatRefusals: parts of different key families do not concatenate,
// and NULL-only parts join any family, bool included.
func TestConcatRefusals(t *testing.T) {
	ints := mustBuild(t, "c", intVals(1, 2))
	strs := mustBuild(t, "c", []value.Value{"a"})
	if _, err := Concat(ints, strs); err == nil {
		t.Fatal("int and string parts concatenated")
	}
	nulls := mustBuild(t, "c", []value.Value{nil})
	if _, err := Concat(nulls, strs); err != nil {
		t.Fatalf("NULL-only part: %v", err)
	}
	bools := mustBuild(t, "c", []value.Value{true})
	both, err := Concat(nulls, bools)
	if err != nil {
		t.Fatalf("NULL+bool parts: %v", err)
	}
	wantPos(t, both.Lookup([]Span{{Lo: false, LoInc: true}}), 1)
}
