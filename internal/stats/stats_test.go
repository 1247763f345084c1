package stats

import (
	"fmt"
	"math"
	"testing"

	"github.com/trance-go/trance/internal/dataflow"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/skew"
	"github.com/trance-go/trance/internal/value"
)

// mkBag builds a one-int-column bag from a value sequence.
func mkBag(vals []int64) (value.Bag, nrc.BagType) {
	b := make(value.Bag, len(vals))
	for i, v := range vals {
		b[i] = value.Tuple{v}
	}
	return b, nrc.BagOf(nrc.Tup("k", nrc.IntT))
}

// seq is a deterministic pseudo-random sequence (splitmix-style), so the
// tests draw the same synthetic columns on every run.
func seq(n int, mod int64, seed uint64) []int64 {
	out := make([]int64, n)
	s := seed
	for i := range out {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		out[i] = int64(z % uint64(mod))
	}
	return out
}

func TestCollectExactSmallColumn(t *testing.T) {
	b, bt := mkBag([]int64{5, 1, 3, 1, 5, 9})
	tab := Collect(b, bt, Options{})
	if tab.Rows != 6 {
		t.Fatalf("rows = %d, want 6", tab.Rows)
	}
	c, ok := tab.Column("k")
	if !ok {
		t.Fatal("column k missing")
	}
	if !c.Exact || c.NDV != 4 {
		t.Fatalf("NDV = %d (exact=%t), want exact 4", c.NDV, c.Exact)
	}
	if c.Min != int64(1) || c.Max != int64(9) {
		t.Fatalf("min/max = %v/%v, want 1/9", c.Min, c.Max)
	}
	if c.Nulls != 0 {
		t.Fatalf("nulls = %d, want 0", c.Nulls)
	}
}

func TestCollectCountsNulls(t *testing.T) {
	b := value.Bag{value.Tuple{int64(1)}, value.Tuple{nil}, value.Tuple{nil}, value.Tuple{int64(7)}}
	tab := Collect(b, nrc.BagOf(nrc.Tup("k", nrc.IntT)), Options{})
	c, _ := tab.Column("k")
	if c.Nulls != 2 {
		t.Fatalf("nulls = %d, want 2", c.Nulls)
	}
	if c.NDV != 2 || c.Min != int64(1) || c.Max != int64(7) {
		t.Fatalf("NDV/min/max = %d/%v/%v, want 2/1/7", c.NDV, c.Min, c.Max)
	}
}

// TestCollectHeavyNullIsNotAKey: when NULL itself is frequent enough for the
// detector to flag it, the histogram still lists only real keys — the NULLs
// are counted under Nulls, and HeavyFraction covers the listed keys alone.
func TestCollectHeavyNullIsNotAKey(t *testing.T) {
	b := make(value.Bag, 600)
	for i := range b {
		switch i % 3 {
		case 0:
			b[i] = value.Tuple{nil}
		case 1:
			b[i] = value.Tuple{int64(4)}
		default:
			b[i] = value.Tuple{int64(1000 + i)}
		}
	}
	tab := Collect(b, nrc.BagOf(nrc.Tup("k", nrc.IntT)), Options{})
	c, _ := tab.Column("k")
	if c.Nulls != 200 {
		t.Fatalf("nulls = %d, want 200", c.Nulls)
	}
	if len(c.Heavy) != 1 || c.Heavy[0].Value != "4" || c.Heavy[0].Count != 200 {
		t.Fatalf("heavy keys = %+v, want only key 4 with count 200", c.Heavy)
	}
	if c.HeavyFraction < 0.33 || c.HeavyFraction > 0.34 {
		t.Fatalf("heavy fraction = %.3f, want 1/3", c.HeavyFraction)
	}
}

// TestKMVEstimateWithinBound draws columns with known distinct counts well
// above the sketch size and checks the KMV estimate lands within the
// documented error bound: standard error ≈ 1/√(k−2), so 5σ ≈ 16% at k=1024.
// The sequences are deterministic, so this is a fixed regression check, not a
// flaky statistical one.
func TestKMVEstimateWithinBound(t *testing.T) {
	for _, tc := range []struct {
		n    int
		mod  int64
		seed uint64
	}{
		{n: 40000, mod: 20000, seed: 1},
		{n: 60000, mod: 50000, seed: 2},
		{n: 30000, mod: 5000, seed: 3},
	} {
		t.Run(fmt.Sprintf("n=%d mod=%d", tc.n, tc.mod), func(t *testing.T) {
			vals := seq(tc.n, tc.mod, tc.seed)
			truth := map[int64]bool{}
			for _, v := range vals {
				truth[v] = true
			}
			b, bt := mkBag(vals)
			tab := Collect(b, bt, Options{})
			c, _ := tab.Column("k")
			if c.Exact {
				t.Fatalf("NDV reported exact with %d distinct values (k=%d)", len(truth), DefaultSketchSize)
			}
			relErr := math.Abs(float64(c.NDV)-float64(len(truth))) / float64(len(truth))
			bound := 5 / math.Sqrt(float64(DefaultSketchSize-2))
			if relErr > bound {
				t.Fatalf("NDV = %d, true %d: relative error %.3f exceeds bound %.3f", c.NDV, len(truth), relErr, bound)
			}
		})
	}
}

func TestKMVExactBelowSketchSize(t *testing.T) {
	vals := seq(5000, 800, 4) // 800 < DefaultSketchSize distinct values
	truth := map[int64]bool{}
	for _, v := range vals {
		truth[v] = true
	}
	b, bt := mkBag(vals)
	tab := Collect(b, bt, Options{})
	c, _ := tab.Column("k")
	if !c.Exact || c.NDV != int64(len(truth)) {
		t.Fatalf("NDV = %d (exact=%t), want exact %d", c.NDV, c.Exact, len(truth))
	}
}

// TestHeavyKeysAgreeWithDetector checks Collect's heavy-key histogram flags
// exactly the keys skew.Detector.HeavyKeys flags on the same data with the
// same options — the property keeping the cost model and the skew-aware
// executor in agreement about what "heavy" means.
func TestHeavyKeysAgreeWithDetector(t *testing.T) {
	// ~60% of rows share key 0; the rest spread over 997 keys.
	n := 4000
	vals := make([]int64, n)
	rest := seq(n, 997, 7)
	for i := range vals {
		if i%5 < 3 {
			vals[i] = 0
		} else {
			vals[i] = 1 + rest[i]
		}
	}
	b, bt := mkBag(vals)
	opts := Options{Parallelism: 8}.withDefaults()
	tab := Collect(b, bt, opts)
	c, _ := tab.Column("k")

	// Reference: the detector over the same partitioning shape.
	ctx := dataflow.NewContext(opts.Parallelism)
	rows := make([]dataflow.Row, len(b))
	for i, e := range b {
		rows[i] = dataflow.Row(e.(value.Tuple))
	}
	det := skew.Detector{Threshold: opts.Threshold, SampleSize: opts.SampleSize}
	want := det.HeavyKeys(ctx.FromRows(rows), []int{0})

	if len(want) == 0 {
		t.Fatal("detector flagged no heavy keys on the skewed data")
	}
	if len(c.Heavy) != len(want) {
		t.Fatalf("histogram has %d heavy keys, detector flagged %d", len(c.Heavy), len(want))
	}
	for _, hk := range c.Heavy {
		if !want.Has(dataflow.Row{parseIntKey(t, hk.Value)}, []int{0}) {
			t.Fatalf("histogram key %q not flagged by detector", hk.Value)
		}
	}
	// The hot key carries ~60% of rows; its exact count must be exact.
	if c.Heavy[0].Value != "0" || c.Heavy[0].Count != int64(3*n/5) {
		t.Fatalf("top heavy key = %q count %d, want \"0\" count %d", c.Heavy[0].Value, c.Heavy[0].Count, 3*n/5)
	}
	if c.HeavyFraction < 0.55 || c.HeavyFraction > 0.7 {
		t.Fatalf("heavy fraction = %.3f, want ≈0.6", c.HeavyFraction)
	}
}

func parseIntKey(t *testing.T, s string) int64 {
	t.Helper()
	var v int64
	if _, err := fmt.Sscanf(s, "%d", &v); err != nil {
		t.Fatalf("heavy key %q is not an int", s)
	}
	return v
}

func TestUniformColumnHasNoHeavyKeys(t *testing.T) {
	b, bt := mkBag(seq(4000, 3989, 11))
	tab := Collect(b, bt, Options{})
	c, _ := tab.Column("k")
	if c.HeavyFraction != 0 || len(c.Heavy) != 0 {
		t.Fatalf("uniform column flagged heavy keys: fraction %.3f, %d keys", c.HeavyFraction, len(c.Heavy))
	}
}

func TestCollectScalarElem(t *testing.T) {
	b := value.Bag{int64(3), int64(1), int64(3)}
	tab := Collect(b, nrc.BagOf(nrc.IntT), Options{})
	c, ok := tab.Column("_value")
	if !ok {
		t.Fatal("_value column missing")
	}
	if c.NDV != 2 || c.Min != int64(1) || c.Max != int64(3) {
		t.Fatalf("NDV/min/max = %d/%v/%v, want 2/1/3", c.NDV, c.Min, c.Max)
	}
}

func TestCollectSkipsNestedFields(t *testing.T) {
	et := nrc.Tup("k", nrc.IntT, "items", nrc.BagOf(nrc.Tup("v", nrc.IntT)))
	b := value.Bag{value.Tuple{int64(1), value.Bag{value.Tuple{int64(2)}}}}
	tab := Collect(b, nrc.BagOf(et), Options{})
	if len(tab.Columns) != 1 || tab.Columns[0].Name != "k" {
		t.Fatalf("columns = %+v, want only k", tab.Columns)
	}
}

func TestEstimateConversion(t *testing.T) {
	b, bt := mkBag([]int64{1, 2, 2})
	tab := Collect(b, bt, Options{})
	tab.Generation = 42
	te := tab.Estimate()
	if te.Generation != 42 || te.Rows != 3 {
		t.Fatalf("estimate gen/rows = %d/%d, want 42/3", te.Generation, te.Rows)
	}
	ce, ok := te.Cols["k"]
	if !ok || ce.NDV != 2 || ce.Min != int64(1) || ce.Max != int64(2) {
		t.Fatalf("col estimate = %+v, want NDV 2 min 1 max 2", ce)
	}
}

func TestCollectDeterministic(t *testing.T) {
	b, bt := mkBag(seq(3000, 50, 5))
	a := Collect(b, bt, Options{})
	c := Collect(b, bt, Options{})
	ca, _ := a.Column("k")
	cb, _ := c.Column("k")
	if ca.NDV != cb.NDV || ca.HeavyFraction != cb.HeavyFraction || len(ca.Heavy) != len(cb.Heavy) {
		t.Fatalf("collection not deterministic: %+v vs %+v", ca, cb)
	}
}

// TestSelectiveColumnsBoundaries: the auto-index policy flags a column exactly
// when the dataset holds at least MinIndexRows rows and the column at least
// MinIndexNDV distinct values — both bounds inclusive.
func TestSelectiveColumnsBoundaries(t *testing.T) {
	cols := []Column{
		{Name: "below", NDV: MinIndexNDV - 1},
		{Name: "at", NDV: MinIndexNDV},
		{Name: "above", NDV: MinIndexNDV + 1},
	}
	for _, c := range []struct {
		rows int64
		want string
	}{
		{MinIndexRows - 1, "[]"},
		{MinIndexRows, "[at above]"},
		{MinIndexRows + 1, "[at above]"},
	} {
		tab := &Table{Rows: c.rows, Columns: cols}
		if got := fmt.Sprint(tab.SelectiveColumns()); got != c.want {
			t.Errorf("%d rows: flagged %s, want %s", c.rows, got, c.want)
		}
	}

	// The same bounds reached through Collect: MinIndexRows rows cycling over
	// ndv distinct keys (counted exactly, below the sketch size).
	for _, c := range []struct {
		rows, ndv int
		want      string
	}{
		{MinIndexRows, MinIndexNDV, "[k]"},
		{MinIndexRows, MinIndexNDV - 1, "[]"},
		{MinIndexRows - 1, MinIndexNDV, "[]"},
	} {
		vals := make([]int64, c.rows)
		for i := range vals {
			vals[i] = int64(i % c.ndv)
		}
		b, bt := mkBag(vals)
		tab := Collect(b, bt, Options{})
		if got := fmt.Sprint(tab.SelectiveColumns()); got != c.want {
			t.Errorf("%d rows over %d keys (ndv %d): flagged %s, want %s", c.rows, c.ndv, tab.Columns[0].NDV, got, c.want)
		}
	}
}

// exactFields projects the fields Merge must reproduce exactly.
func exactFields(t *Table) string {
	s := fmt.Sprintf("rows=%d bytes=%d", t.Rows, t.Bytes)
	for _, c := range t.Columns {
		s += fmt.Sprintf(" | %s ndv=%d exact=%t nulls=%d min=%v max=%v", c.Name, c.NDV, c.Exact, c.Nulls, c.Min, c.Max)
	}
	return s
}

// TestMergeEqualsCollect: statistics collected over consecutive runs of a
// bag and merged equal Collect over the whole bag on every exact field, on
// both sides of the sketch bound (exact counts and KMV estimates).
func TestMergeEqualsCollect(t *testing.T) {
	bt := nrc.BagOf(nrc.Tup("k", nrc.IntT, "s", nrc.StringT, "r", nrc.RealT))
	for _, n := range []int{0, 7, 900, 5000} {
		ks := seq(n, int64(1+n/2), 11)
		b := make(value.Bag, n)
		for i := range b {
			var r value.Value = float64(ks[i]) / 3
			if i%17 == 0 {
				r = nil
			}
			b[i] = value.Tuple{ks[i], fmt.Sprint("s", ks[i]%50), r}
		}
		whole := Collect(b, bt, Options{})
		for _, cuts := range [][]int{{n / 2}, {n / 3, n / 3, n / 3}, {1, n - 1}} {
			var tabs []*Table
			lo := 0
			for i, c := range cuts {
				hi := lo + c
				if i == len(cuts)-1 {
					hi = n
				}
				hi = min(max(hi, lo), n)
				tabs = append(tabs, Collect(b[lo:hi], bt, Options{}))
				lo = hi
			}
			m := Merge(tabs...)
			if got, want := exactFields(m), exactFields(whole); got != want {
				t.Errorf("n=%d cuts=%v:\n got %s\nwant %s", n, cuts, got, want)
			}
			if m.Chunks != len(tabs) {
				t.Errorf("n=%d: merged %d tables, Chunks=%d", n, len(tabs), m.Chunks)
			}
		}
	}
}

// TestMergeHeavyKeys: a key flagged in one run keeps the sum of the flagged
// counts over the merged rows, and a key whose merged fraction falls under
// the detector threshold is dropped.
func TestMergeHeavyKeys(t *testing.T) {
	a, bt := mkBag(seq(4000, 4000, 5))
	hot := make([]int64, 1000)
	for i := range hot {
		hot[i] = 7
		if i%2 == 0 {
			hot[i] = int64(100000 + i)
		}
	}
	b, _ := mkBag(hot)
	tiny, _ := mkBag([]int64{424242, 424242})
	m := Merge(Collect(a, bt, Options{}), Collect(b, bt, Options{}), Collect(tiny, bt, Options{}))
	col := m.Columns[0]
	if len(col.Heavy) != 1 || col.Heavy[0].Value != "7" || col.Heavy[0].Count < 500 {
		t.Fatalf("merged heavy keys %+v, want only 7 with at least 500 rows", col.Heavy)
	}
	if f := col.Heavy[0].Fraction; f != float64(col.Heavy[0].Count)/5002 || col.HeavyFraction != f {
		t.Fatalf("fraction %v, heavy fraction %v over %d rows", f, col.HeavyFraction, m.Rows)
	}
	one := Collect(b, bt, Options{})
	if got := Merge(one); got == one || fmt.Sprint(*got) != fmt.Sprint(*one) {
		t.Fatal("a one-table merge must be a copy of the table")
	}
}
