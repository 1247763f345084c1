package index

import (
	"reflect"
	"strings"
	"testing"

	"github.com/trance-go/trance/internal/metrics"
	"github.com/trance-go/trance/internal/value"
)

func intVals(ns ...int64) []value.Value {
	out := make([]value.Value, len(ns))
	for i, n := range ns {
		out[i] = n
	}
	return out
}

func mustBuild(t *testing.T, col string, hash, ordered bool, vals []value.Value) *ColumnIndex {
	t.Helper()
	ci, err := Build(col, hash, ordered, vals)
	if err != nil {
		t.Fatalf("Build(%s): %v", col, err)
	}
	return ci
}

func wantPos(t *testing.T, got []int32, want ...int32) {
	t.Helper()
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("positions: got %v, want %v", got, want)
	}
}

func TestParseKind(t *testing.T) {
	cases := []struct {
		in            string
		hash, ordered bool
		ok            bool
	}{
		{"", true, true, true},
		{"both", true, true, true},
		{"hash+range", true, true, true},
		{"hash", true, false, true},
		{"range", false, true, true},
		{"ordered", false, true, true},
		{"btree", false, false, false},
	}
	for _, c := range cases {
		h, o, err := ParseKind(c.in)
		if c.ok != (err == nil) || h != c.hash || o != c.ordered {
			t.Errorf("ParseKind(%q) = %v,%v,%v", c.in, h, o, err)
		}
	}
}

func TestKindString(t *testing.T) {
	if Hash.String() != "hash" || Ordered.String() != "range" {
		t.Fatalf("Kind.String: %s/%s", Hash, Ordered)
	}
	both := mustBuild(t, "c", true, true, intVals(1))
	hOnly := mustBuild(t, "c", true, false, intVals(1))
	oOnly := mustBuild(t, "c", false, true, intVals(1))
	if both.KindString() != "hash+range" || hOnly.KindString() != "hash" || oOnly.KindString() != "range" {
		t.Fatalf("KindString: %s/%s/%s", both.KindString(), hOnly.KindString(), oOnly.KindString())
	}
	if !both.HasHash() || !both.HasOrdered() || hOnly.HasOrdered() || oOnly.HasHash() {
		t.Fatal("structure flags wrong")
	}
}

func TestSpanPredicates(t *testing.T) {
	p := Point(int64(5))
	if !p.IsPoint() || p.Empty() {
		t.Fatalf("Point(5): IsPoint=%v Empty=%v", p.IsPoint(), p.Empty())
	}
	// 5 == 5.0 under value.Compare, so a mixed-type point is still a point.
	mixed := Span{Lo: int64(5), Hi: float64(5), LoInc: true, HiInc: true}
	if !mixed.IsPoint() {
		t.Fatal("[5,5.0] should be a point")
	}
	empty := Span{Lo: int64(7), Hi: int64(3), LoInc: true, HiInc: true}
	if !empty.Empty() {
		t.Fatal("[7,3] should be empty")
	}
	halfOpen := Span{Lo: int64(5), Hi: int64(5), LoInc: true, HiInc: false}
	if !halfOpen.Empty() || halfOpen.IsPoint() {
		t.Fatal("[5,5) should be empty, not a point")
	}
	unbounded := Span{}
	if unbounded.Empty() || unbounded.IsPoint() {
		t.Fatal("(-∞,+∞) is neither empty nor a point")
	}
}

func TestSpanFormatting(t *testing.T) {
	cases := []struct {
		s    Span
		want string
	}{
		{Point(int64(5)), "[5]"},
		{Span{Lo: int64(1), Hi: int64(9), LoInc: true, HiInc: false}, "[1,9)"},
		{Span{Lo: int64(1), LoInc: false}, "(1,+∞)"},
		{Span{Hi: "zz", HiInc: true}, `(-∞,"zz"]`},
	}
	for _, c := range cases {
		if got := c.s.String(); got != c.want {
			t.Errorf("Span.String: got %s, want %s", got, c.want)
		}
	}
	if FormatSpans(nil) != "∅" {
		t.Fatalf("FormatSpans(nil) = %s", FormatSpans(nil))
	}
	multi := FormatSpans([]Span{Point(int64(1)), Point(int64(3))})
	if multi != "[1]∪[3]" {
		t.Fatalf("FormatSpans = %s", multi)
	}
}

func TestBuildRefusals(t *testing.T) {
	before := refusals.Load()
	refusedBefore := refused.Load()

	cases := []struct {
		name          string
		hash, ordered bool
		vals          []value.Value
		reason        string
	}{
		{"no structure", false, false, intVals(1), "no structure requested"},
		{"mixed types", true, true, []value.Value{int64(1), "x"}, "mixed-type keys"},
		{"label column", true, true, []value.Value{value.NewLabel(1, int64(2))}, "label column"},
		{"boxed tuple", true, true, []value.Value{value.Tuple{int64(1)}}, "boxed value"},
		{"boxed bag", true, true, []value.Value{value.Bag{int64(1)}}, "boxed value"},
		{"range over bool", false, true, []value.Value{true, false}, "range index over bool keys"},
	}
	for _, c := range cases {
		ci, err := Build("c", c.hash, c.ordered, c.vals)
		if err == nil || ci != nil {
			t.Fatalf("%s: build should refuse", c.name)
		}
		if !strings.Contains(err.Error(), c.reason) {
			t.Fatalf("%s: error %q lacks reason %q", c.name, err, c.reason)
		}
	}

	after := refusals.Load()
	for _, reason := range []string{"no structure requested", "mixed-type keys", "label column", "boxed value", "range index over bool keys"} {
		if after[reason] <= before[reason] {
			t.Errorf("refusal reason %q not counted (%d -> %d)", reason, before[reason], after[reason])
		}
	}
	if got := refused.Load() - refusedBefore; got != int64(len(cases)) {
		t.Errorf("Refused counter advanced by %d, want %d", got, len(cases))
	}
}

func TestBoolHashDowngradesOrdered(t *testing.T) {
	// Requesting both structures over bool keeps the hash and silently drops
	// the ordered structure rather than refusing the whole build.
	ci := mustBuild(t, "flag", true, true, []value.Value{true, false, true})
	if !ci.HasHash() || ci.HasOrdered() {
		t.Fatalf("bool column: hash=%v ordered=%v", ci.HasHash(), ci.HasOrdered())
	}
	wantPos(t, ci.Lookup([]Span{Point(true)}), 0, 2)
	wantPos(t, ci.Lookup([]Span{Point(false)}), 1)
}

func TestEmptyDataset(t *testing.T) {
	ci := mustBuild(t, "c", true, true, nil)
	if ci.Len() != 0 || ci.Keys() != 0 || ci.Nulls() != 0 {
		t.Fatalf("empty index: len=%d keys=%d nulls=%d", ci.Len(), ci.Keys(), ci.Nulls())
	}
	wantPos(t, ci.Lookup([]Span{Point(int64(1)), {}}))
	if !ci.CanServe([]Span{Point(int64(1))}) {
		t.Fatal("empty index should still serve spans")
	}
	ext, err := ci.Extend(intVals(10, 20))
	if err != nil {
		t.Fatal(err)
	}
	wantPos(t, ext.Lookup([]Span{Point(int64(20))}), 1)
}

func TestAllNullColumn(t *testing.T) {
	ci := mustBuild(t, "c", true, true, []value.Value{nil, nil, nil})
	if ci.Len() != 3 || ci.Nulls() != 3 || ci.Keys() != 0 {
		t.Fatalf("all-NULL: len=%d nulls=%d keys=%d", ci.Len(), ci.Nulls(), ci.Keys())
	}
	// No span matches a NULL key, not even the unbounded one.
	wantPos(t, ci.Lookup([]Span{{}}))
	wantPos(t, ci.Lookup([]Span{Point(int64(0))}))
	// A non-NULL tail fixes the family after the fact.
	ext, err := ci.Extend(intVals(42))
	if err != nil {
		t.Fatal(err)
	}
	if ext.Len() != 4 || ext.Nulls() != 3 || ext.Keys() != 1 {
		t.Fatalf("extended all-NULL: len=%d nulls=%d keys=%d", ext.Len(), ext.Nulls(), ext.Keys())
	}
	wantPos(t, ext.Lookup([]Span{Point(int64(42))}), 3)
}

func TestNullKeysExcludedFromSpans(t *testing.T) {
	vals := []value.Value{int64(1), nil, int64(3), nil, int64(5)}
	ci := mustBuild(t, "c", true, true, vals)
	if ci.Nulls() != 2 || ci.Keys() != 3 {
		t.Fatalf("nulls=%d keys=%d", ci.Nulls(), ci.Keys())
	}
	// Unbounded range gathers every non-NULL row and skips positions 1 and 3.
	wantPos(t, ci.Lookup([]Span{{}}), 0, 2, 4)
	wantPos(t, ci.Lookup([]Span{{Lo: int64(2), LoInc: true}}), 2, 4)
}

func TestDuplicateKeys(t *testing.T) {
	vals := intVals(7, 3, 7, 3, 7)
	ci := mustBuild(t, "c", true, true, vals)
	if ci.Keys() != 2 {
		t.Fatalf("keys=%d, want 2", ci.Keys())
	}
	wantPos(t, ci.Lookup([]Span{Point(int64(7))}), 0, 2, 4)
	// The ordered structure agrees with the hash structure.
	oOnly := mustBuild(t, "c", false, true, vals)
	wantPos(t, oOnly.Lookup([]Span{Point(int64(7))}), 0, 2, 4)
	wantPos(t, oOnly.Lookup([]Span{{Lo: int64(3), Hi: int64(7), LoInc: true, HiInc: false}}), 1, 3)
}

func TestRangeBounds(t *testing.T) {
	ci := mustBuild(t, "c", false, true, intVals(10, 20, 30, 40))
	cases := []struct {
		span Span
		want []int32
	}{
		{Span{Lo: int64(20), Hi: int64(30), LoInc: true, HiInc: true}, []int32{1, 2}},
		{Span{Lo: int64(20), Hi: int64(30), LoInc: false, HiInc: false}, nil},
		{Span{Lo: int64(15), Hi: int64(35), LoInc: true, HiInc: true}, []int32{1, 2}},
		{Span{Hi: int64(20), HiInc: false}, []int32{0}},
		{Span{Lo: int64(30), LoInc: false}, []int32{3}},
		{Span{Lo: int64(100), LoInc: true}, nil},
	}
	for _, c := range cases {
		wantPos(t, ci.Lookup([]Span{c.span}), c.want...)
	}
}

func TestMultiSpanLookupDedupsAndSorts(t *testing.T) {
	ci := mustBuild(t, "c", true, true, intVals(5, 1, 3, 5, 2))
	// Overlapping spans: the point span and the range both match rows 0 and 3.
	spans := []Span{
		Point(int64(5)),
		{Lo: int64(3), Hi: int64(9), LoInc: true, HiInc: true},
		{Lo: int64(9), Hi: int64(1), LoInc: true, HiInc: true}, // empty, skipped
	}
	wantPos(t, ci.Lookup(spans), 0, 2, 3)
	// Disjoint points come back ascending even though span order is reversed.
	wantPos(t, ci.Lookup([]Span{Point(int64(2)), Point(int64(1))}), 1, 4)
}

func TestCanServe(t *testing.T) {
	hOnly := mustBuild(t, "c", true, false, intVals(1, 2))
	oOnly := mustBuild(t, "c", false, true, intVals(1, 2))
	point := []Span{Point(int64(1))}
	rng := []Span{{Lo: int64(1), Hi: int64(2), LoInc: true, HiInc: true}}
	emptySpan := []Span{{Lo: int64(9), Hi: int64(1), LoInc: true, HiInc: true}}
	if !hOnly.CanServe(point) || hOnly.CanServe(rng) {
		t.Fatal("hash-only: point yes, range no")
	}
	if !oOnly.CanServe(point) || !oOnly.CanServe(rng) {
		t.Fatal("ordered-only serves both span shapes")
	}
	if !hOnly.CanServe(emptySpan) {
		t.Fatal("empty spans need no structure")
	}
	// A point span on a hash-less ordered index resolves by binary search.
	wantPos(t, oOnly.Lookup(point), 0)
}

func TestNormKeyCrossType(t *testing.T) {
	// Pure-int column probed with real constants.
	ints := mustBuild(t, "c", true, true, intVals(4, 5, 6))
	wantPos(t, ints.Lookup([]Span{Point(float64(5))}), 1)
	wantPos(t, ints.Lookup([]Span{Point(float64(5.5))}))
	// Mixed int/real column: hash keys normalize to float64 so 5 == 5.0.
	mixed := mustBuild(t, "c", true, true, []value.Value{int64(5), float64(5), float64(2.5)})
	wantPos(t, mixed.Lookup([]Span{Point(int64(5))}), 0, 1)
	wantPos(t, mixed.Lookup([]Span{Point(float64(2.5))}), 2)
	// Non-numeric probe of a float-keyed column passes through untouched.
	wantPos(t, mixed.Lookup([]Span{Point("x")}))
}

func TestExtendIncremental(t *testing.T) {
	base := mustBuild(t, "c", true, true, intVals(1, 2, 3))
	ext, err := base.Extend([]value.Value{int64(2), nil, int64(9)})
	if err != nil {
		t.Fatal(err)
	}
	// The receiver is untouched.
	if base.Len() != 3 || base.Nulls() != 0 {
		t.Fatalf("Extend mutated receiver: len=%d nulls=%d", base.Len(), base.Nulls())
	}
	wantPos(t, base.Lookup([]Span{Point(int64(2))}), 1)
	if ext.Len() != 6 || ext.Nulls() != 1 || ext.Keys() != 4 {
		t.Fatalf("extended: len=%d nulls=%d keys=%d", ext.Len(), ext.Nulls(), ext.Keys())
	}
	wantPos(t, ext.Lookup([]Span{Point(int64(2))}), 1, 3)
	wantPos(t, ext.Lookup([]Span{{Lo: int64(3), LoInc: true}}), 2, 5)
}

func TestExtendRenormalizesIntHashKeys(t *testing.T) {
	// The base is pure-int; the tail introduces a real, so inherited hash keys
	// must be re-normalized to float64 or point lookups would miss old rows.
	base := mustBuild(t, "c", true, true, intVals(5, 7))
	ext, err := base.Extend([]value.Value{float64(5), float64(1.5)})
	if err != nil {
		t.Fatal(err)
	}
	wantPos(t, ext.Lookup([]Span{Point(int64(5))}), 0, 2)
	wantPos(t, ext.Lookup([]Span{Point(float64(5))}), 0, 2)
	wantPos(t, ext.Lookup([]Span{Point(int64(7))}), 1)
	wantPos(t, ext.Lookup([]Span{Point(float64(1.5))}), 3)
}

func TestExtendRefusals(t *testing.T) {
	base := mustBuild(t, "c", true, true, intVals(1))
	if _, err := base.Extend([]value.Value{"x"}); err == nil || !strings.Contains(err.Error(), "mixed-type keys") {
		t.Fatalf("mixed-type tail: %v", err)
	}
	ordBool := mustBuild(t, "c", false, true, intVals(1))
	// Force the bool-family check: an ordered index whose tail is bool-typed
	// is a mixed-type refusal; a fresh bool ordered extend path needs a
	// hash+bool base, which Build already downgraded, so grow one manually.
	if _, err := ordBool.Extend([]value.Value{true}); err == nil {
		t.Fatal("bool tail over int ordered index should refuse")
	}
}

func TestWordBoundarySizes(t *testing.T) {
	for _, n := range []int{63, 64, 65} {
		vals := make([]value.Value, n)
		for i := range vals {
			vals[i] = int64(i)
		}
		ci := mustBuild(t, "c", true, true, vals)
		if ci.Len() != n || int(ci.Keys()) != n {
			t.Fatalf("n=%d: len=%d keys=%d", n, ci.Len(), ci.Keys())
		}
		got := ci.Lookup([]Span{{}})
		if len(got) != n {
			t.Fatalf("n=%d: unbounded span matched %d rows", n, len(got))
		}
		for i, p := range got {
			if p != int32(i) {
				t.Fatalf("n=%d: position %d = %d", n, i, p)
			}
		}
		wantPos(t, ci.Lookup([]Span{Point(int64(n - 1))}), int32(n-1))
	}
}

func TestDateAndStringKeys(t *testing.T) {
	d1, d2, d3 := value.MakeDate(2020, 1, 15), value.MakeDate(2020, 6, 1), value.MakeDate(2021, 3, 9)
	dates := mustBuild(t, "d", true, true, []value.Value{d2, d1, d3})
	wantPos(t, dates.Lookup([]Span{Point(d1)}), 1)
	wantPos(t, dates.Lookup([]Span{{Lo: d1, Hi: d2, LoInc: false, HiInc: true}}), 0)
	strs := mustBuild(t, "s", true, true, []value.Value{"beta", "alpha", "gamma"})
	wantPos(t, strs.Lookup([]Span{{Lo: "alpha", Hi: "beta", LoInc: true, HiInc: true}}), 0, 1)
}

func TestSetNilSafety(t *testing.T) {
	var nilSet *Set
	if nilSet.Column("c") != nil || nilSet.Len() != 0 || nilSet.Names() != nil {
		t.Fatal("nil Set accessors should be no-ops")
	}
	clone := nilSet.Clone()
	if clone == nil || clone.Len() != 0 {
		t.Fatal("Clone of nil Set should be a usable empty set")
	}

	s := NewSet()
	a := mustBuild(t, "a", true, false, intVals(1))
	b := mustBuild(t, "b", false, true, intVals(2))
	s.Put(a)
	s.Put(b)
	if s.Len() != 2 || s.Column("a") != a || s.Column("zzz") != nil {
		t.Fatal("Set Put/Column")
	}
	if names := s.Names(); !reflect.DeepEqual(names, []string{"a", "b"}) {
		t.Fatalf("Names: %v", names)
	}
	c2 := s.Clone()
	replacement := mustBuild(t, "a", true, true, intVals(9))
	c2.Put(replacement)
	if s.Column("a") != a || c2.Column("a") != replacement || c2.Column("b") != b {
		t.Fatal("Clone should share columns but isolate later Puts")
	}
}

func TestCountersRecord(t *testing.T) {
	counters := []*metrics.Counter{rebuilt, plannedScans, scans, rowsMatched, fallbacks}
	before := make([]int64, len(counters))
	for i, c := range counters {
		before[i] = c.Load()
	}
	RecordRebuild()
	RecordPlanned()
	RecordScan(7)
	RecordFallback()
	for i, want := range []int64{1, 1, 1, 7, 1} {
		if got := counters[i].Load() - before[i]; got != want {
			t.Errorf("%s advanced by %d, want %d", counters[i].Path, got, want)
		}
	}
}
