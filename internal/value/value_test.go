package value

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestDate(t *testing.T) {
	d := MakeDate(1997, 3, 9)
	if d.Year() != 1997 || d.Month() != 3 || d.Day() != 9 {
		t.Fatalf("date components wrong: %v", d)
	}
	if d.String() != "1997-03-09" {
		t.Fatalf("date string: %s", d.String())
	}
	if MakeDate(1996, 12, 31) >= d {
		t.Fatal("date order broken")
	}
	// String builds its ten bytes by hand; pin it to the format it replaced,
	// past both ends of the four-digit years too.
	for _, d := range []Date{0, 1, MakeDate(1, 1, 1), MakeDate(999, 9, 9), MakeDate(2024, 12, 31), MakeDate(9999, 99, 99),
		MakeDate(10000, 1, 1), MakeDate(123456, 7, 8), -1, MakeDate(-44, 3, 15)} {
		if want := fmt.Sprintf("%04d-%02d-%02d", d.Year(), d.Month(), d.Day()); d.String() != want {
			t.Errorf("Date(%d).String() = %q, want %q", int64(d), d.String(), want)
		}
	}
}

// TestCompareSeqAgreesWithCompare: the unboxed comparator row sorts use is
// Compare on the same two sequences as Tuples, for every kind of element.
func TestCompareSeqAgreesWithCompare(t *testing.T) {
	tuples := []Tuple{
		{},
		{nil},
		{nil, nil},
		{int64(5)},
		{5.0}, // ties with int64(5): numbers compare across int and real
		{4.5},
		{int64(5), "a"},
		{5.0, "b"},
		{true}, {false},
		{"a"}, {"a", nil}, {"b"},
		{MakeDate(2020, 1, 1)}, {MakeDate(2020, 1, 2), int64(1)},
		{Label{Site: 1, Payload: Tuple{int64(1)}}},
		{Label{Site: 1, Payload: Tuple{1.0}}},
		{Label{Site: 2, Payload: Tuple{}}},
		{Tuple{int64(1), "x"}}, {Tuple{int64(1)}},
		{Bag{}}, {Bag{int64(1), int64(2)}}, {Bag{int64(2), int64(1)}}, // one multiset, two orders
		{Bag{Tuple{"k", Bag{2.5}}, nil}},
		{int64(1), Bag{Tuple{int64(1), Bag{"deep"}}}, nil, "tail"},
	}
	for _, a := range tuples {
		for _, b := range tuples {
			if got, want := sign(CompareSeq(a, b)), sign(Compare(a, b)); got != want {
				t.Errorf("CompareSeq(%s, %s) = %d, Compare = %d", Format(a), Format(b), got, want)
			}
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a, b := make(Tuple, r.Intn(4)), make(Tuple, r.Intn(4))
		for j := range a {
			a[j] = randomFlat(r, 0)
		}
		for j := range b {
			b[j] = randomFlat(r, 0)
		}
		if got, want := sign(CompareSeq(a, b)), sign(Compare(a, b)); got != want {
			t.Fatalf("CompareSeq(%s, %s) = %d, Compare = %d", Format(a), Format(b), got, want)
		}
	}
}

func TestCompareScalars(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{int64(1), int64(2), -1},
		{int64(2), int64(2), 0},
		{int64(3), int64(2), 1},
		{"a", "b", -1},
		{true, false, 1},
		{nil, int64(0), -1},
		{nil, nil, 0},
		{1.5, 1.5, 0},
		{int64(2), 2.0, 0}, // numeric cross-type
		{int64(2), 2.5, -1},
		{MakeDate(1995, 1, 1), MakeDate(1995, 1, 2), -1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); sign(got) != c.want {
			t.Errorf("Compare(%v,%v)=%d want %d", c.a, c.b, got, c.want)
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestBagMultisetEquality(t *testing.T) {
	a := Bag{int64(1), int64(2), int64(2)}
	b := Bag{int64(2), int64(1), int64(2)}
	c := Bag{int64(1), int64(2)}
	if !Equal(a, b) {
		t.Fatal("bags with same multiset should be equal")
	}
	if Equal(a, c) {
		t.Fatal("bags with different multiplicities must differ")
	}
}

func TestNestedEquality(t *testing.T) {
	v1 := Tuple{"alice", Bag{Tuple{MakeDate(2020, 1, 1), Bag{Tuple{int64(1), 2.5}}}}}
	v2 := Tuple{"alice", Bag{Tuple{MakeDate(2020, 1, 1), Bag{Tuple{int64(1), 2.5}}}}}
	if !Equal(v1, v2) {
		t.Fatal("deep equal failed")
	}
	v3 := Clone(v1).(Tuple)
	v3[1].(Bag)[0].(Tuple)[1].(Bag)[0].(Tuple)[1] = 3.5
	if Equal(v1, v3) {
		t.Fatal("mutated clone should differ")
	}
	// Clone must not share structure.
	if Equal(v1, v3) {
		t.Fatal("clone shares structure with original")
	}
}

func TestLabelReuse(t *testing.T) {
	inner := Label{Site: 7, Payload: Tuple{int64(42)}}
	got := NewLabel(9, inner)
	if !Equal(got, inner) {
		t.Fatalf("single-label payload must reuse label, got %v", Format(got))
	}
	composite := NewLabel(9, inner, int64(1))
	l := composite.(Label)
	if l.Site != 9 || len(l.Payload) != 2 {
		t.Fatalf("composite label wrong: %v", Format(composite))
	}
}

func TestKeyInjective(t *testing.T) {
	vals := []Value{
		nil, true, false, int64(0), int64(1), 0.0, 1.0, "", "a", "ab",
		MakeDate(2020, 5, 5), int64(20200505), // Date vs int64 with same bits
		Label{Site: 1, Payload: Tuple{int64(1)}},
		Label{Site: 2, Payload: Tuple{int64(1)}},
		Tuple{int64(1), int64(2)},
		Tuple{Tuple{int64(1)}, int64(2)},
		Tuple{"a", "b"},
		Tuple{"ab", ""}, // concatenation attack
	}
	seen := map[string]Value{}
	for _, v := range vals {
		k := Key(v)
		if prev, dup := seen[k]; dup {
			t.Fatalf("key collision: %v vs %v", Format(prev), Format(v))
		}
		seen[k] = v
	}
}

func TestKeyColsMatchesKey(t *testing.T) {
	row := Tuple{int64(1), "x", nil}
	if KeyCols(row, []int{0, 2}) != Key(int64(1))+Key(nil) {
		t.Fatal("KeyCols must concatenate per-column keys")
	}
}

func TestAllNull(t *testing.T) {
	row := Tuple{nil, int64(1), nil}
	if !AllNull(row, []int{0, 2}) {
		t.Fatal("expected all null")
	}
	if AllNull(row, []int{0, 1}) {
		t.Fatal("expected not all null")
	}
	if !AllNull(row, nil) {
		t.Fatal("empty column set is vacuously all-null")
	}
}

func TestSizeMonotone(t *testing.T) {
	small := Tuple{int64(1)}
	big := Tuple{int64(1), "hello world", Bag{Tuple{int64(1), int64(2)}}}
	if Size(small) >= Size(big) {
		t.Fatal("size should grow with content")
	}
	if SizeRows([]Tuple{small, small}) != 2*Size(small) {
		t.Fatal("SizeRows should sum")
	}
}

func TestFormatDeterministic(t *testing.T) {
	a := Bag{Tuple{int64(2)}, Tuple{int64(1)}}
	b := Bag{Tuple{int64(1)}, Tuple{int64(2)}}
	if Format(a) != Format(b) {
		t.Fatalf("bag formatting must canonicalize: %s vs %s", Format(a), Format(b))
	}
}

// randomFlat produces a random flat value (scalar or label), the domain of
// keys.
func randomFlat(r *rand.Rand, depth int) Value {
	switch r.Intn(7) {
	case 0:
		return nil
	case 1:
		return r.Int63n(100)
	case 2:
		return float64(r.Intn(100)) / 4
	case 3:
		return string(rune('a' + r.Intn(26)))
	case 4:
		return r.Intn(2) == 0
	case 5:
		return MakeDate(1990+r.Intn(30), 1+r.Intn(12), 1+r.Intn(28))
	default:
		if depth > 2 {
			return r.Int63n(10)
		}
		n := r.Intn(3)
		p := make(Tuple, n)
		for i := range p {
			p[i] = randomFlat(r, depth+1)
		}
		return Label{Site: int32(r.Intn(4)), Payload: p}
	}
}

func TestQuickKeyConsistency(t *testing.T) {
	// Property: Key(a)==Key(b) ⇔ Compare(a,b)==0 for flat values, modulo the
	// numeric cross-type case (int64 vs float64 keys differ by design: keys
	// are used only within homogeneous columns).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomFlat(r, 0), randomFlat(r, 0)
		_, aInt := a.(int64)
		_, bFloat := b.(float64)
		_, aFloat := a.(float64)
		_, bInt := b.(int64)
		if (aInt && bFloat) || (aFloat && bInt) {
			return true
		}
		return (Key(a) == Key(b)) == (Compare(a, b) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCompareTotalOrder(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randomFlat(r, 0), randomFlat(r, 0), randomFlat(r, 0)
		// Antisymmetry.
		if sign(Compare(a, b)) != -sign(Compare(b, a)) {
			return false
		}
		// Transitivity over a <= b <= c.
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCloneEqual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := Tuple{randomFlat(r, 0), Bag{randomFlat(r, 0), randomFlat(r, 0)}}
		cl := Clone(v)
		if !Equal(v, cl) {
			return false
		}
		// reflect.DeepEqual is stricter (ordered); should also hold for a
		// structural clone.
		return reflect.DeepEqual(v, cl)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestParseDate(t *testing.T) {
	d, ok := ParseDate("2020-01-15")
	if !ok || d != MakeDate(2020, 1, 15) {
		t.Fatalf("ParseDate: %v %v", d, ok)
	}
	if d.String() != "2020-01-15" {
		t.Fatalf("round trip: %s", d.String())
	}
	for _, bad := range []string{"", "2020-1-15", "2020/01/15", "2020-13-01", "2020-01-32", "2020-00-10", "not-a-date!", "20200115x-"} {
		if _, ok := ParseDate(bad); ok {
			t.Fatalf("ParseDate(%q) should fail", bad)
		}
	}
}
