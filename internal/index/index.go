// Package index implements per-dataset secondary indexes over scalar
// columns: a hash index for equality lookups and an ordered index for range
// lookups (int/real/string/date, ordered by value.Compare). Indexes map
// column keys to row positions in the dataset's bound row store; the planner
// (plan.Annotate) converts pushed-down `col op const` conjuncts on indexed
// columns into IndexScan nodes carrying Spans, and the executor resolves the
// spans against the ColumnIndex to gather matching rows without a full scan.
//
// NULL keys are never indexed: a comparison with a NULL operand evaluates to
// false under the engine's σ semantics, so excluding NULL rows from every
// span keeps index scans bit-identical to the filter they replace.
//
// Indexes are immutable after Build/Extend, so snapshots shared with
// in-flight queries stay valid across catalog mutations: an Append derives a
// new index with Extend (incremental merge of the tail), a Delete rebuilds
// over the surviving rows.
package index

import (
	"fmt"
	"sort"
	"strings"

	"github.com/trance-go/trance/internal/value"
)

// Kind selects the access structure of an index.
type Kind int

// Index kinds.
const (
	// Hash serves equality (point) spans in O(1).
	Hash Kind = iota
	// Ordered serves range spans by binary search over sorted keys.
	Ordered
)

func (k Kind) String() string {
	if k == Hash {
		return "hash"
	}
	return "range"
}

// ParseKind maps the serving-layer kind names to build flags. "" and "both"
// request every structure the column supports.
func ParseKind(s string) (hash, ordered bool, err error) {
	switch s {
	case "", "both", "hash+range":
		return true, true, nil
	case "hash":
		return true, false, nil
	case "range", "ordered":
		return false, true, nil
	}
	return false, false, fmt.Errorf("index: unknown kind %q (want hash, range, or both)", s)
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

// keyFamily classifies scalar keys for build validation and hash
// normalization. Numeric int and real share a family because value.Compare
// (and therefore σ equality) treats them as one numeric domain.
type keyFamily int

const (
	famNone keyFamily = iota
	famBool
	famNumeric
	famDate
	famString
)

func familyOf(v value.Value) (keyFamily, string) {
	switch v.(type) {
	case bool:
		return famBool, ""
	case int64, float64:
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

// ColumnIndex is an immutable secondary index over one scalar column. It may
// carry a hash structure, an ordered structure, or both.
type ColumnIndex struct {
	// Col is the indexed column's name.
	Col string

	rows  int   // rows covered, including NULL-key rows
	nulls int64 // NULL-key rows excluded from the index

	hasHash, hasOrdered bool
	hash                map[value.Value][]int32
	floatKeys           bool // hash keys normalized to float64 (mixed int/real column)
	keys                []value.Value
	pos                 [][]int32
	family              keyFamily
}

// Build indexes vals, where vals[i] is the key of row i. It refuses (with a
// counted reason) non-scalar keys, mixed-type columns, and range structures
// over bool keys.
func Build(col string, hash, ordered bool, vals []value.Value) (*ColumnIndex, error) {
	if !hash && !ordered {
		return nil, refuse(col, "no structure requested")
	}
	ci := &ColumnIndex{Col: col, rows: len(vals), hasHash: hash, hasOrdered: ordered}
	if err := ci.classify(vals); err != nil {
		return nil, err
	}
	if ordered && ci.family == famBool {
		if !hash {
			return nil, refuse(col, "range index over bool keys")
		}
		ci.hasOrdered = false
	}
	ci.insert(vals, 0)
	if ci.hasOrdered {
		ci.sortKeys()
	}
	built.Add(1)
	return ci, nil
}

// classify validates the key family of every non-NULL value and sets
// float-key normalization for columns containing reals.
func (ci *ColumnIndex) classify(vals []value.Value) error {
	for _, v := range vals {
		if v == nil {
			continue
		}
		fam, reason := familyOf(v)
		if fam == famNone {
			return refuse(ci.Col, reason)
		}
		if ci.family == famNone {
			ci.family = fam
		} else if ci.family != fam {
			return refuse(ci.Col, "mixed-type keys")
		}
		if _, isReal := v.(float64); isReal {
			ci.floatKeys = true
		}
	}
	return nil
}

// normKey maps a key to its hash-map representative: float64 for numeric
// columns containing reals (value.Compare equates 5 and 5.0; the map must
// too), raw otherwise. ok=false means the key cannot occur in this column.
func (ci *ColumnIndex) normKey(v value.Value) (value.Value, bool) {
	if ci.floatKeys {
		switch n := v.(type) {
		case int64:
			return float64(n), true
		case float64:
			return n, true
		}
		return v, true
	}
	if n, isReal := v.(float64); isReal && ci.family == famNumeric {
		// Pure-int column probed with a real constant: integral reals map to
		// their int key, fractional reals match nothing.
		if n == float64(int64(n)) {
			return int64(n), true
		}
		return nil, false
	}
	return v, true
}

func (ci *ColumnIndex) insert(vals []value.Value, base int32) {
	if ci.hasHash && ci.hash == nil {
		ci.hash = make(map[value.Value][]int32, len(vals))
	}
	for i, v := range vals {
		if v == nil {
			ci.nulls++
			continue
		}
		p := base + int32(i)
		if ci.hasHash {
			k, _ := ci.normKey(v)
			ci.hash[k] = append(ci.hash[k], p)
		}
		if ci.hasOrdered {
			ci.keys = append(ci.keys, v)
			ci.pos = append(ci.pos, []int32{p})
		}
	}
}

// sortKeys sorts the (key, positions) pairs and merges duplicate keys so the
// ordered structure holds distinct sorted keys with ascending position lists.
func (ci *ColumnIndex) sortKeys() {
	type kp struct {
		k value.Value
		p []int32
	}
	pairs := make([]kp, len(ci.keys))
	for i := range ci.keys {
		pairs[i] = kp{ci.keys[i], ci.pos[i]}
	}
	sort.SliceStable(pairs, func(i, j int) bool { return value.Compare(pairs[i].k, pairs[j].k) < 0 })
	ci.keys = ci.keys[:0]
	ci.pos = ci.pos[:0]
	for _, e := range pairs {
		n := len(ci.keys)
		if n > 0 && value.Compare(ci.keys[n-1], e.k) == 0 {
			ci.pos[n-1] = append(ci.pos[n-1], e.p...)
			continue
		}
		ci.keys = append(ci.keys, e.k)
		ci.pos = append(ci.pos, e.p)
	}
	for _, p := range ci.pos {
		sort.Slice(p, func(i, j int) bool { return p[i] < p[j] })
	}
}

// Extend derives a new index covering the old rows plus tail (the incremental
// maintenance path of Catalog.Append). The receiver is not modified.
func (ci *ColumnIndex) Extend(tail []value.Value) (*ColumnIndex, error) {
	out := &ColumnIndex{
		Col: ci.Col, rows: ci.rows, nulls: ci.nulls,
		hasHash: ci.hasHash, hasOrdered: ci.hasOrdered,
		floatKeys: ci.floatKeys, family: ci.family,
	}
	if err := out.classify(tail); err != nil {
		return nil, err
	}
	if out.hasOrdered && out.family == famBool {
		return nil, refuse(ci.Col, "range index over bool keys")
	}
	if out.floatKeys && !ci.floatKeys && ci.hasHash {
		// The tail introduced reals into an int-keyed column: re-normalize the
		// inherited hash keys.
		out.hash = make(map[value.Value][]int32, len(ci.hash))
		for k, p := range ci.hash {
			nk, _ := out.normKey(k)
			out.hash[nk] = append(out.hash[nk], p...)
		}
		for _, p := range out.hash {
			sort.Slice(p, func(i, j int) bool { return p[i] < p[j] })
		}
	} else if ci.hasHash {
		out.hash = make(map[value.Value][]int32, len(ci.hash))
		for k, p := range ci.hash {
			out.hash[k] = append([]int32{}, p...)
		}
	}
	if ci.hasOrdered {
		out.keys = append([]value.Value{}, ci.keys...)
		out.pos = make([][]int32, len(ci.pos))
		for i, p := range ci.pos {
			out.pos[i] = append([]int32{}, p...)
		}
	}
	out.rows = ci.rows
	out.nulls = ci.nulls
	out.insert(tail, int32(ci.rows))
	out.rows = ci.rows + len(tail)
	if out.hasOrdered {
		out.sortKeys()
	}
	maintained.Add(1)
	return out, nil
}

// Len returns the number of rows the index covers (NULL-key rows included).
func (ci *ColumnIndex) Len() int { return ci.rows }

// Nulls returns the number of NULL-key rows excluded from every span.
func (ci *ColumnIndex) Nulls() int64 { return ci.nulls }

// Keys returns the number of distinct non-NULL keys.
func (ci *ColumnIndex) Keys() int64 {
	if ci.hasHash {
		return int64(len(ci.hash))
	}
	return int64(len(ci.keys))
}

// HasHash reports whether the hash structure was built.
func (ci *ColumnIndex) HasHash() bool { return ci.hasHash }

// HasOrdered reports whether the ordered structure was built.
func (ci *ColumnIndex) HasOrdered() bool { return ci.hasOrdered }

// KindString renders the built structures for the serving layer.
func (ci *ColumnIndex) KindString() string {
	switch {
	case ci.hasHash && ci.hasOrdered:
		return "hash+range"
	case ci.hasHash:
		return "hash"
	default:
		return "range"
	}
}

// CanServe reports whether the index can resolve every span: point spans need
// either structure, true ranges need the ordered one.
func (ci *ColumnIndex) CanServe(spans []Span) bool {
	for _, s := range spans {
		if s.Empty() {
			continue
		}
		if s.IsPoint() {
			if !ci.hasHash && !ci.hasOrdered {
				return false
			}
			continue
		}
		if !ci.hasOrdered {
			return false
		}
	}
	return true
}

// Lookup resolves spans to the ascending, deduplicated row positions whose
// keys fall in any span. NULL-key rows never match.
func (ci *ColumnIndex) Lookup(spans []Span) []int32 {
	var out []int32
	for _, s := range spans {
		if s.Empty() {
			continue
		}
		if s.IsPoint() && ci.hasHash {
			if k, ok := ci.normKey(s.Lo); ok {
				out = append(out, ci.hash[k]...)
			}
			continue
		}
		out = append(out, ci.rangeLookup(s)...)
	}
	if !sort.SliceIsSorted(out, func(i, j int) bool { return out[i] < out[j] }) {
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	}
	if len(spans) > 1 {
		out = dedupPos(out)
	}
	return out
}

func (ci *ColumnIndex) rangeLookup(s Span) []int32 {
	lo := 0
	if s.Lo != nil {
		lo = sort.Search(len(ci.keys), func(i int) bool {
			c := value.Compare(ci.keys[i], s.Lo)
			if s.LoInc {
				return c >= 0
			}
			return c > 0
		})
	}
	hi := len(ci.keys)
	if s.Hi != nil {
		hi = sort.Search(len(ci.keys), func(i int) bool {
			c := value.Compare(ci.keys[i], s.Hi)
			if s.HiInc {
				return c > 0
			}
			return c >= 0
		})
	}
	var out []int32
	for i := lo; i < hi; i++ {
		out = append(out, ci.pos[i]...)
	}
	return out
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
