// Package index implements per-dataset secondary indexes over scalar
// columns (bool/int/real/string/date). An index holds a column's distinct
// keys sorted by value.Compare, each with the positions of its rows in the
// dataset's bound row store, so one binary search serves every span: a point
// span is the one-key range [k, k]. The planner (plan.Annotate) converts
// pushed-down `col op const` conjuncts on indexed columns into IndexScan nodes
// carrying Spans, and the executor resolves the spans against the
// ColumnIndex to gather matching rows without a full scan.
//
// NULL keys are never indexed: a comparison with a NULL operand evaluates to
// false under the engine's σ semantics, so excluding NULL rows from every
// span keeps index scans bit-identical to the filter they replace. A column
// holding a NaN key is refused: value.Compare makes NaN equal to every
// number, so σ keeps a NaN row under any comparison and the column has no
// sorted order to search.
//
// Indexes are immutable after Build/Concat/Extend, so snapshots shared with
// in-flight queries stay valid across catalog mutations. An index is a list
// of parts, one per catalog chunk: an Append adds a part over the appended
// rows, a Delete rebuilds the parts of the chunks it removed rows from and
// reuses the rest.
package index

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"github.com/trance-go/trance/internal/value"
)

// ParseKind checks an index kind name of the serving layer. The names are
// kept for compatibility only: "", "both", "hash+range", "hash", "range" and
// "ordered" all name the one sorted structure.
func ParseKind(s string) error {
	switch s {
	case "", "both", "hash+range", "hash", "range", "ordered":
		return nil
	}
	return fmt.Errorf("index: unknown kind %q (want hash, range, or both)", s)
}

// Span is a contiguous key interval. A nil bound is unbounded; a span whose
// bounds are equal and both inclusive is a point (equality) span. Spans never
// match NULL keys.
type Span struct {
	Lo, Hi       value.Value
	LoInc, HiInc bool
}

// Point returns the equality span for key v.
func Point(v value.Value) Span { return Span{Lo: v, Hi: v, LoInc: true, HiInc: true} }

// IsPoint reports whether the span matches exactly one key.
func (s Span) IsPoint() bool {
	return s.Lo != nil && s.Hi != nil && s.LoInc && s.HiInc && value.Compare(s.Lo, s.Hi) == 0
}

// Empty reports whether the span can match no key at all.
func (s Span) Empty() bool {
	if s.Lo == nil || s.Hi == nil {
		return false
	}
	c := value.Compare(s.Lo, s.Hi)
	return c > 0 || (c == 0 && !(s.LoInc && s.HiInc))
}

func (s Span) String() string {
	if s.IsPoint() {
		return "[" + value.Format(s.Lo) + "]"
	}
	var b strings.Builder
	if s.Lo == nil {
		b.WriteString("(-∞")
	} else {
		if s.LoInc {
			b.WriteByte('[')
		} else {
			b.WriteByte('(')
		}
		b.WriteString(value.Format(s.Lo))
	}
	b.WriteByte(',')
	if s.Hi == nil {
		b.WriteString("+∞)")
	} else {
		b.WriteString(value.Format(s.Hi))
		if s.HiInc {
			b.WriteByte(']')
		} else {
			b.WriteByte(')')
		}
	}
	return b.String()
}

// FormatSpans renders a span list for Explain.
func FormatSpans(spans []Span) string {
	if len(spans) == 0 {
		return "∅"
	}
	parts := make([]string, len(spans))
	for i, s := range spans {
		parts[i] = s.String()
	}
	return strings.Join(parts, "∪")
}

// keyFamily classifies scalar keys for build validation. Numeric int and
// real share a family because value.Compare (and therefore σ equality)
// treats them as one numeric domain.
type keyFamily int

const (
	famNone keyFamily = iota
	famBool
	famNumeric
	famDate
	famString
)

func familyOf(v value.Value) (keyFamily, string) {
	switch x := v.(type) {
	case bool:
		return famBool, ""
	case int64:
		return famNumeric, ""
	case float64:
		if math.IsNaN(x) {
			return famNone, "NaN key"
		}
		return famNumeric, ""
	case value.Date:
		return famDate, ""
	case string:
		return famString, ""
	case value.Label:
		return famNone, "label column"
	case value.Tuple, value.Bag:
		return famNone, "boxed value"
	}
	return famNone, fmt.Sprintf("unsupported key type %T", v)
}

// ColumnIndex is an immutable secondary index over one scalar column: an
// ordered list of parts, one per run of rows (a catalog chunk), each sorted
// over positions local to its run and offset by the run's first row. Build
// makes a one-part index; Concat lays indexes end to end by reference, so an
// index over a list of chunks is derived without touching the parts of
// unchanged chunks.
type ColumnIndex struct {
	// Col is the indexed column's name.
	Col string

	rows   int   // rows covered, including NULL-key rows
	nulls  int64 // NULL-key rows excluded from the index
	family keyFamily
	parts  []part
}

// part is one run's sorted keys placed at its first row.
type part struct {
	off int32
	*sorted
}

// sorted is the access structure over one run of rows: its distinct non-NULL
// keys in value.Compare order, each the key of its first row, and the
// positions of their rows, local to the run, in one flat slice grouped by
// key. The rows of keys[i] are pos[start[i]:start[i+1]], ascending.
type sorted struct {
	keys  []value.Value
	pos   []int32
	start []int32
}

// Build indexes vals, where vals[i] is the key of row i, as one part. It
// refuses (with a counted reason) non-scalar keys, mixed-type columns and NaN
// keys. The two flag parameters are ignored: every index is the one sorted
// structure.
func Build(col string, _, _ bool, vals []value.Value) (*ColumnIndex, error) {
	ci, err := buildPart(col, vals)
	if err == nil {
		built.Add(1)
	}
	return ci, err
}

func buildPart(col string, vals []value.Value) (*ColumnIndex, error) {
	fam := famNone
	for _, v := range vals {
		if v == nil {
			continue
		}
		f, reason := familyOf(v)
		if f == famNone {
			return nil, refuse(col, reason)
		}
		if fam == famNone {
			fam = f
		} else if fam != f {
			return nil, refuse(col, "mixed-type keys")
		}
	}
	s, nulls := sortKeys(vals)
	return &ColumnIndex{Col: col, rows: len(vals), nulls: nulls, family: fam, parts: []part{{0, s}}}, nil
}

// sortKeys builds the sorted structure over vals and returns it with the
// NULL-key count. Positions sort by key, then position, so each key's rows
// come out ascending.
func sortKeys(vals []value.Value) (*sorted, int64) {
	pos := make([]int32, 0, len(vals))
	for i, v := range vals {
		if v != nil {
			pos = append(pos, int32(i))
		}
	}
	slices.SortFunc(pos, func(a, b int32) int {
		if c := value.Compare(vals[a], vals[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	s := &sorted{pos: pos}
	for i, p := range pos {
		if n := len(s.keys); n > 0 && value.Compare(s.keys[n-1], vals[p]) == 0 {
			continue
		}
		s.keys = append(s.keys, vals[p])
		s.start = append(s.start, int32(i))
	}
	s.start = append(s.start, int32(len(pos)))
	return s, int64(len(vals) - len(pos))
}

// Concat returns the index over the rows of idxs laid end to end: their
// parts, each offset by the rows before it. The parts are shared, not
// copied. The inputs' key families must agree (NULL-only inputs agree with
// any). idxs must not be empty.
func Concat(idxs ...*ColumnIndex) (*ColumnIndex, error) {
	if len(idxs) == 1 {
		return idxs[0], nil
	}
	out := &ColumnIndex{Col: idxs[0].Col}
	for _, ci := range idxs {
		if out.family == famNone {
			out.family = ci.family
		} else if ci.family != famNone && ci.family != out.family {
			return nil, refuse(out.Col, "mixed-type keys")
		}
		for _, p := range ci.parts {
			out.parts = append(out.parts, part{p.off + int32(out.rows), p.sorted})
		}
		out.rows += ci.rows
		out.nulls += ci.nulls
	}
	return out, nil
}

// Extend derives a new index covering the old rows plus tail (the incremental
// maintenance path: it adds one part over the tail, so it costs O(len(tail))).
// The receiver is not modified.
func (ci *ColumnIndex) Extend(tail []value.Value) (*ColumnIndex, error) {
	p, err := buildPart(ci.Col, tail)
	if err != nil {
		return nil, err
	}
	out, err := Concat(ci, p)
	if err != nil {
		return nil, err
	}
	maintained.Add(1)
	return out, nil
}

// Len returns the number of rows the index covers (NULL-key rows included).
func (ci *ColumnIndex) Len() int { return ci.rows }

// Nulls returns the number of NULL-key rows excluded from every span.
func (ci *ColumnIndex) Nulls() int64 { return ci.nulls }

// Keys returns the number of distinct non-NULL keys, counted across parts
// when the index has more than one.
func (ci *ColumnIndex) Keys() int64 {
	if len(ci.parts) == 1 {
		return int64(len(ci.parts[0].keys))
	}
	var all []value.Value
	for _, p := range ci.parts {
		all = append(all, p.keys...)
	}
	slices.SortFunc(all, value.Compare)
	return int64(len(slices.CompactFunc(all, func(a, b value.Value) bool { return value.Compare(a, b) == 0 })))
}

// Lookup resolves spans to the ascending, deduplicated row positions whose
// keys fall in any span. NULL-key rows never match.
func (ci *ColumnIndex) Lookup(spans []Span) []int32 {
	if len(ci.parts) == 1 {
		return ci.parts[0].lookup(spans)
	}
	var out []int32
	for _, p := range ci.parts {
		for _, pos := range p.lookup(spans) {
			out = append(out, p.off+pos)
		}
	}
	return out
}

func (s *sorted) lookup(spans []Span) []int32 {
	var out []int32
	for _, sp := range spans {
		if lo, hi := s.search(sp); lo < hi {
			out = append(out, s.pos[s.start[lo]:s.start[hi]]...)
		}
	}
	if !slices.IsSorted(out) {
		slices.Sort(out)
	}
	if len(spans) > 1 {
		out = dedupPos(out)
	}
	return out
}

// search returns the run [lo, hi) of keys that fall in sp by binary search;
// lo >= hi when none does.
func (s *sorted) search(sp Span) (lo, hi int) {
	hi = len(s.keys)
	if sp.Lo != nil {
		lo = sort.Search(len(s.keys), func(i int) bool {
			c := value.Compare(s.keys[i], sp.Lo)
			return c > 0 || c == 0 && sp.LoInc
		})
	}
	if sp.Hi != nil {
		hi = sort.Search(len(s.keys), func(i int) bool {
			c := value.Compare(s.keys[i], sp.Hi)
			return c > 0 || c == 0 && !sp.HiInc
		})
	}
	return lo, hi
}

func dedupPos(p []int32) []int32 {
	if len(p) < 2 {
		return p
	}
	w := 1
	for i := 1; i < len(p); i++ {
		if p[i] != p[w-1] {
			p[w] = p[i]
			w++
		}
	}
	return p[:w]
}
