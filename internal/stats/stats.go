// Package stats collects per-dataset statistics for the cost-based planning
// layer: row/byte counts, per-scalar-column NDV estimates (exact below the
// sketch size, KMV-estimated above it), min/max bounds, NULL counts, and
// heavy-key histograms computed with the same sampling detector the
// skew-aware operators use (internal/skew), so the cost model and the
// executor agree on what "heavy" means. Collection is deterministic: the KMV
// sketch hashes values with the engine's canonical encoding, and the heavy-key
// sampler runs on a context with the default fixed sample seed. See
// docs/COSTMODEL.md for the estimation formulas and error bounds.
package stats

import (
	"cmp"
	"container/heap"
	"math"
	"slices"

	"github.com/trance-go/trance/internal/dataflow"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/plan"
	"github.com/trance-go/trance/internal/skew"
	"github.com/trance-go/trance/internal/value"
)

// DefaultSketchSize is the KMV sketch size k: NDV estimates above k distinct
// values have standard error ≈ 1/√(k−2) (about 3% at 1024).
const DefaultSketchSize = 1024

// Options configures collection. Zero values select the defaults.
type Options struct {
	// Parallelism is the partition count the heavy-key sampler sees (the
	// per-partition threshold semantics of skew.Detector depend on it).
	// 0 = 8, matching runner.DefaultConfig.
	Parallelism int
	// SampleSize and Threshold configure the skew detector; zero values use
	// the paper's defaults (400 samples, 2.5%).
	SampleSize int
	Threshold  float64
	// SketchSize is the KMV sketch bound k; 0 = DefaultSketchSize.
	SketchSize int
}

func (o Options) withDefaults() Options {
	if o.Parallelism <= 0 {
		o.Parallelism = 8
	}
	if o.SampleSize <= 0 {
		o.SampleSize = skew.DefaultSampleSize
	}
	if o.Threshold <= 0 {
		o.Threshold = skew.DefaultThreshold
	}
	if o.SketchSize <= 0 {
		o.SketchSize = DefaultSketchSize
	}
	return o
}

// HeavyKey is one heavy-key histogram bucket: a key the sampling detector
// flagged, with its exact frequency over the full data.
type HeavyKey struct {
	// Value is the key rendered with value.Format.
	Value string
	// Count is the exact number of rows carrying the key (a lower bound in a
	// merged table; see Table.Chunks).
	Count int64
	// Fraction is Count over the table's row count.
	Fraction float64
}

// Column is the collected statistics of one top-level scalar column.
type Column struct {
	Name string
	Type nrc.Type
	// NDV is the estimated number of distinct non-NULL values; Exact reports
	// whether it is an exact count (distinct count stayed under the sketch
	// size) or a KMV estimate.
	NDV   int64
	Exact bool
	// Min and Max bound the non-NULL values (value.Compare order); nil when
	// the column is all-NULL.
	Min, Max value.Value
	// Nulls counts NULL entries.
	Nulls int64
	// Heavy is the heavy-key histogram (keys the skew detector flags), by
	// descending frequency. HeavyFraction is the total fraction of rows they
	// carry — the signal the Auto strategy thresholds on.
	Heavy         []HeavyKey
	HeavyFraction float64

	// sketch is the KMV sketch behind NDV: the at most k smallest distinct
	// mixed value hashes, ascending. Merge unions it across tables.
	sketch []uint64
}

// Table is the collected statistics of one dataset.
type Table struct {
	Rows  int64
	Bytes int64
	// Columns covers the top-level scalar columns, in schema order. Nested
	// (bag- or tuple-typed) fields carry no statistics.
	Columns []Column
	// Generation stamps the catalog registration the statistics describe;
	// 0 outside a catalog.
	Generation int64
	// Chunks is the number of collected tables Merge combined into this one
	// (1 for a table Collect returned). Above 1, heavy-key Counts are lower
	// bounds: a chunk that holds a key without flagging it adds nothing.
	Chunks int

	sketchSize int
	threshold  float64
}

// Column returns the named column's statistics.
func (t *Table) Column(name string) (Column, bool) {
	for _, c := range t.Columns {
		if c.Name == name {
			return c, true
		}
	}
	return Column{}, false
}

// Auto-index thresholds: a column is worth a registration-time secondary
// index when the dataset is big enough for index probes to beat a scan and
// the column is selective enough for equality/range predicates to keep only a
// small fraction of rows (see docs/INDEXES.md).
const (
	// MinIndexRows is the smallest dataset auto-indexing considers; below it a
	// full scan is effectively free.
	MinIndexRows = 128
	// MinIndexNDV is the smallest distinct-value count auto-indexing
	// considers; below it an equality predicate keeps too large a fraction of
	// the rows for an index probe to pay off.
	MinIndexNDV = 50
)

// SelectiveColumns lists the scalar columns the auto-index policy flags:
// those of a dataset with at least MinIndexRows rows whose NDV estimate is at
// least MinIndexNDV. Catalog registration builds secondary indexes for
// exactly these (see trance.Catalog).
func (t *Table) SelectiveColumns() []string {
	if t.Rows < MinIndexRows {
		return nil
	}
	var out []string
	for _, c := range t.Columns {
		if c.NDV >= MinIndexNDV {
			out = append(out, c.Name)
		}
	}
	return out
}

// Estimate converts the collected statistics into the cost model's form.
func (t *Table) Estimate() plan.TableEstimate {
	te := plan.TableEstimate{Generation: t.Generation, Rows: t.Rows, Bytes: t.Bytes, Cols: map[string]plan.ColEstimate{}}
	for _, c := range t.Columns {
		te.Cols[c.Name] = plan.ColEstimate{NDV: c.NDV, Min: c.Min, Max: c.Max, HeavyFraction: c.HeavyFraction}
	}
	return te
}

// Collect computes the statistics of a bag under its declared type. The bag
// is read-only; collection never mutates it. Rows whose element type is a
// tuple contribute per-field statistics for scalar fields; a scalar element
// type is treated as a single column named "_value".
func Collect(b value.Bag, t nrc.BagType, opts Options) *Table {
	opts = opts.withDefaults()
	fields := scalarFields(t)
	tab := &Table{Rows: int64(len(b)), Bytes: value.Size(b), Chunks: 1, sketchSize: opts.SketchSize, threshold: opts.Threshold}
	if len(fields) == 0 || len(b) == 0 {
		for _, f := range fields {
			tab.Columns = append(tab.Columns, Column{Name: f.name, Type: f.typ})
		}
		return tab
	}

	// Heavy keys per column, via the same detector the skew-aware operators
	// use, over the same partitioning shape.
	ctx := dataflow.NewContext(opts.Parallelism)
	rows := make([]dataflow.Row, len(b))
	for i, e := range b {
		if tp, ok := e.(value.Tuple); ok {
			rows[i] = dataflow.Row(tp)
		} else {
			rows[i] = dataflow.Row{e}
		}
	}
	d := ctx.FromRows(rows)
	det := skew.Detector{Threshold: opts.Threshold, SampleSize: opts.SampleSize}
	heavy := make([]skew.KeySet, len(fields))
	keyCols := make([][]int, len(fields))
	cols := make([]colAcc, len(fields))
	for i, f := range fields {
		keyCols[i] = []int{f.idx}
		heavy[i] = det.HeavyKeys(d, keyCols[i])
		cols[i] = colAcc{sketch: newKMV(opts.SketchSize), heavyCounts: make([]heavyCount, len(heavy[i]))}
	}
	for _, r := range rows {
		for i, f := range fields {
			v := r[f.idx]
			ca := &cols[i]
			if v == nil {
				ca.nulls++
				continue
			}
			if ca.min == nil || value.Compare(v, ca.min) < 0 {
				ca.min = v
			}
			if ca.max == nil || value.Compare(v, ca.max) > 0 {
				ca.max = v
			}
			ca.sketch.add(value.Hash64(v))
			if len(heavy[i]) > 0 {
				if k := heavy[i].Find(r, keyCols[i]); k >= 0 {
					hc := &ca.heavyCounts[k]
					hc.count++
					if hc.count == 1 {
						hc.rendered = value.Format(v)
					}
				}
			}
		}
	}

	for i, f := range fields {
		ca := cols[i]
		ndv, exact := ca.sketch.estimate()
		col := Column{Name: f.name, Type: f.typ, NDV: ndv, Exact: exact, Min: ca.min, Max: ca.max, Nulls: ca.nulls, sketch: ca.sketch.sorted()}
		var heavyRows int64
		for _, hc := range ca.heavyCounts {
			if hc.count == 0 {
				continue // a heavy NULL: counted under Nulls, not as a key
			}
			col.Heavy = append(col.Heavy, HeavyKey{Value: hc.rendered, Count: hc.count, Fraction: float64(hc.count) / float64(tab.Rows)})
			heavyRows += hc.count
		}
		sortHeavy(col.Heavy)
		col.HeavyFraction = float64(heavyRows) / float64(tab.Rows)
		tab.Columns = append(tab.Columns, col)
	}
	return tab
}

// sortHeavy orders a heavy-key histogram by descending count, then value.
func sortHeavy(h []HeavyKey) {
	slices.SortFunc(h, func(a, b HeavyKey) int {
		if a.Count != b.Count {
			return cmp.Compare(b.Count, a.Count)
		}
		return cmp.Compare(a.Value, b.Value)
	})
}

// Merge combines the statistics Collect took over consecutive runs of one
// dataset (catalog chunks, in order) into the statistics of the whole.
// Rows, Bytes, Nulls, Min, Max, NDV and Exact equal Collect over the
// concatenated bag: Bytes drops the 4-byte bag header each run after the first
// counted, and NDV is the estimate of the union of the runs' KMV sketches,
// which is the sketch of the union. Heavy keys cannot be merged exactly: the
// merged histogram lists every key some run flagged, Count sums the runs that
// flagged it (a lower bound), Fraction is taken over the merged Rows, and a key
// whose merged Fraction falls below the detector threshold is dropped. One
// table merges to a copy of itself. The inputs are not modified.
func Merge(tabs ...*Table) *Table {
	if len(tabs) == 1 {
		cp := *tabs[0]
		return &cp
	}
	opts := Options{SketchSize: tabs[0].sketchSize, Threshold: tabs[0].threshold}.withDefaults()
	out := &Table{sketchSize: opts.SketchSize, threshold: opts.Threshold}
	for _, t := range tabs {
		out.Rows += t.Rows
		out.Bytes += t.Bytes
		out.Chunks += t.Chunks
	}
	out.Bytes -= 4 * int64(len(tabs)-1)
	for i, c := range tabs[0].Columns {
		col := Column{Name: c.Name, Type: c.Type}
		counts := map[string]int64{}
		for _, t := range tabs {
			tc := t.Columns[i]
			col.Nulls += tc.Nulls
			if tc.Min != nil && (col.Min == nil || value.Compare(tc.Min, col.Min) < 0) {
				col.Min = tc.Min
			}
			if tc.Max != nil && (col.Max == nil || value.Compare(tc.Max, col.Max) > 0) {
				col.Max = tc.Max
			}
			col.sketch = unionSketch(col.sketch, tc.sketch, out.sketchSize)
			for _, hk := range tc.Heavy {
				counts[hk.Value] += hk.Count
			}
		}
		if out.Rows > 0 { // Collect leaves an empty bag's columns zero
			col.NDV, col.Exact = estimate(col.sketch, out.sketchSize)
		}
		var heavyRows int64
		for v, n := range counts {
			if f := float64(n) / float64(out.Rows); f >= out.threshold {
				col.Heavy = append(col.Heavy, HeavyKey{Value: v, Count: n, Fraction: f})
				heavyRows += n
			}
		}
		sortHeavy(col.Heavy)
		if out.Rows > 0 {
			col.HeavyFraction = float64(heavyRows) / float64(out.Rows)
		}
		out.Columns = append(out.Columns, col)
	}
	return out
}

// unionSketch returns the at most k smallest distinct hashes of two
// ascending sketches, ascending.
func unionSketch(a, b []uint64, k int) []uint64 {
	out := make([]uint64, 0, min(k, len(a)+len(b)))
	for len(out) < k && (len(a) > 0 || len(b) > 0) {
		switch {
		case len(b) == 0 || len(a) > 0 && a[0] < b[0]:
			out, a = append(out, a[0]), a[1:]
		case len(a) == 0 || b[0] < a[0]:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	return out
}

type heavyCount struct {
	rendered string
	count    int64
}

type colAcc struct {
	min, max    value.Value
	nulls       int64
	sketch      *kmv
	heavyCounts []heavyCount // parallel to the column's heavy-key set
}

type scalarField struct {
	name string
	typ  nrc.Type
	idx  int
}

// scalarFields lists the top-level scalar columns of the element type.
func scalarFields(t nrc.BagType) []scalarField {
	tt, ok := t.Elem.(nrc.TupleType)
	if !ok {
		if _, scalar := t.Elem.(nrc.ScalarType); scalar {
			return []scalarField{{name: "_value", typ: t.Elem, idx: 0}}
		}
		return nil
	}
	var out []scalarField
	for i, f := range tt.Fields {
		if _, scalar := f.Type.(nrc.ScalarType); scalar {
			out = append(out, scalarField{name: f.Name, typ: f.Type, idx: i})
		}
	}
	return out
}

// kmv is a k-minimum-values distinct-count sketch: it retains the k smallest
// distinct 64-bit hashes seen. While fewer than k distinct hashes exist the
// count is exact; beyond that NDV ≈ (k−1) · 2⁶⁴ / kth-smallest-hash, with
// standard error ≈ 1/√(k−2).
type kmv struct {
	k  int
	in map[uint64]struct{}
	h  hashHeap // max-heap of the retained hashes
}

func newKMV(k int) *kmv { return &kmv{k: k, in: map[uint64]struct{}{}} }

// mix64 is a bijective finalizer (splitmix64's) applied over the engine's
// FNV-1a value hash: KMV needs the kth-smallest hash to behave like a uniform
// order statistic, and raw FNV over short structured key encodings is not
// uniform enough near the extremes.
func mix64(h uint64) uint64 {
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

func (s *kmv) add(raw uint64) {
	h := mix64(raw)
	if _, dup := s.in[h]; dup {
		return
	}
	if len(s.h) < s.k {
		s.in[h] = struct{}{}
		heap.Push(&s.h, h)
		return
	}
	if h >= s.h[0] {
		return
	}
	delete(s.in, s.h[0])
	s.in[h] = struct{}{}
	s.h[0] = h
	heap.Fix(&s.h, 0)
}

func (s *kmv) estimate() (ndv int64, exact bool) {
	if len(s.h) == 0 {
		return 0, true
	}
	return estimateKth(len(s.h), s.k, s.h[0]) // h[0]: largest retained = kth smallest overall
}

// sorted returns the retained hashes in ascending order.
func (s *kmv) sorted() []uint64 {
	out := slices.Clone([]uint64(s.h))
	slices.Sort(out)
	return out
}

// estimate is the NDV estimate of an ascending sketch of bound k.
func estimate(sketch []uint64, k int) (ndv int64, exact bool) {
	if len(sketch) == 0 {
		return 0, true
	}
	return estimateKth(len(sketch), k, sketch[len(sketch)-1])
}

// estimateKth estimates NDV from a sketch of n retained hashes under bound k
// whose largest retained hash is kth: the count itself below k, else
// (k−1) · 2⁶⁴ / kth.
func estimateKth(n, k int, kth uint64) (ndv int64, exact bool) {
	if n < k {
		return int64(n), true
	}
	if kth == 0 {
		return int64(n), false
	}
	est := float64(k-1) * math.Ldexp(1, 64) / float64(kth)
	return int64(est + 0.5), false
}

type hashHeap []uint64

func (h hashHeap) Len() int           { return len(h) }
func (h hashHeap) Less(i, j int) bool { return h[i] > h[j] } // max-heap
func (h hashHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *hashHeap) Push(x any)        { *h = append(*h, x.(uint64)) }
func (h *hashHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }
