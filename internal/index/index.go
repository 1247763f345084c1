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
// Indexes are immutable after Build/Concat/Extend, so snapshots shared with
// in-flight queries stay valid across catalog mutations. An index is a list
// of parts, one per catalog chunk: an Append adds a part over the appended
// rows, a Delete rebuilds the parts of the chunks it removed rows from and
// reuses the rest.
package index

import (
	"cmp"
	"fmt"
	"slices"
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

// ColumnIndex is an immutable secondary index over one scalar column: an
// ordered list of parts, one per run of rows (a catalog chunk), each holding a
// hash structure, an ordered structure, or both over positions local to its
// run and offset by the run's first row. Build makes a one-part index;
// Concat lays indexes end to end by reference, so an index over a list of
// chunks is derived without touching the parts of unchanged chunks.
type ColumnIndex struct {
	// Col is the indexed column's name.
	Col string

	rows  int   // rows covered, including NULL-key rows
	nulls int64 // NULL-key rows excluded from the index

	hasHash, hasOrdered bool // every part carries the structure
	family              keyFamily
	parts               []part
}

// part is one run's structures placed at its first row.
type part struct {
	off int32
	*structures
}

// structures are the access structures over one run of rows, keyed by
// positions local to the run.
type structures struct {
	hasHash, hasOrdered bool
	hash                map[value.Value][]int32
	floatKeys           bool // hash keys normalized to float64 (mixed int/real column)
	keys                []value.Value
	pos                 [][]int32
	family              keyFamily
}

// Build indexes vals, where vals[i] is the key of row i, as one part. It
// refuses (with a counted reason) non-scalar keys, mixed-type columns, and
// range structures over bool keys.
func Build(col string, hash, ordered bool, vals []value.Value) (*ColumnIndex, error) {
	ci, err := buildPart(col, hash, ordered, vals)
	if err == nil {
		built.Add(1)
	}
	return ci, err
}

func buildPart(col string, hash, ordered bool, vals []value.Value) (*ColumnIndex, error) {
	if !hash && !ordered {
		return nil, refuse(col, "no structure requested")
	}
	s := &structures{hasHash: hash, hasOrdered: ordered}
	if err := s.classify(col, vals); err != nil {
		return nil, err
	}
	if ordered && s.family == famBool {
		if !hash {
			return nil, refuse(col, "range index over bool keys")
		}
		s.hasOrdered = false
	}
	nulls := s.insert(vals)
	return &ColumnIndex{
		Col: col, rows: len(vals), nulls: nulls,
		hasHash: s.hasHash, hasOrdered: s.hasOrdered, family: s.family,
		parts: []part{{0, s}},
	}, nil
}

// classify validates the key family of every non-NULL value and sets
// float-key normalization for columns containing reals.
func (s *structures) classify(col string, vals []value.Value) error {
	for _, v := range vals {
		if v == nil {
			continue
		}
		fam, reason := familyOf(v)
		if fam == famNone {
			return refuse(col, reason)
		}
		if s.family == famNone {
			s.family = fam
		} else if s.family != fam {
			return refuse(col, "mixed-type keys")
		}
		if _, isReal := v.(float64); isReal {
			s.floatKeys = true
		}
	}
	return nil
}

// normKey maps a key to its hash-map representative: float64 for numeric
// columns containing reals (value.Compare equates 5 and 5.0; the map must
// too), raw otherwise. ok=false means the key cannot occur in this column.
func (s *structures) normKey(v value.Value) (value.Value, bool) {
	if s.floatKeys {
		switch n := v.(type) {
		case int64:
			return float64(n), true
		case float64:
			return n, true
		}
		return v, true
	}
	if n, isReal := v.(float64); isReal && s.family == famNumeric {
		// Pure-int column probed with a real constant: integral reals map to
		// their int key, fractional reals match nothing.
		if n == float64(int64(n)) {
			return int64(n), true
		}
		return nil, false
	}
	return v, true
}

// keyPos is one non-NULL row of an ordered build: its key and position.
type keyPos struct {
	k value.Value
	p int32
}

// insert fills the structures from vals and returns the NULL-key count.
func (s *structures) insert(vals []value.Value) (nulls int64) {
	if s.hasHash {
		s.hash = make(map[value.Value][]int32, len(vals))
	}
	var pairs []keyPos
	if s.hasOrdered {
		pairs = make([]keyPos, 0, len(vals))
	}
	for i, v := range vals {
		if v == nil {
			nulls++
			continue
		}
		p := int32(i)
		if s.hasHash {
			k, _ := s.normKey(v)
			s.hash[k] = append(s.hash[k], p)
		}
		if s.hasOrdered {
			pairs = append(pairs, keyPos{v, p})
		}
	}
	if s.hasOrdered {
		s.sortKeys(pairs)
	}
	return nulls
}

// sortKeys orders the (key, position) pairs by key, then position, and groups
// equal keys, so the ordered structure holds distinct sorted keys — each the
// key of its group's first row — with ascending position lists.
func (s *structures) sortKeys(pairs []keyPos) {
	slices.SortFunc(pairs, func(a, b keyPos) int {
		if c := value.Compare(a.k, b.k); c != 0 {
			return c
		}
		return cmp.Compare(a.p, b.p)
	})
	all := make([]int32, len(pairs))
	var starts []int
	for i, e := range pairs {
		all[i] = e.p
		if n := len(s.keys); n > 0 && value.Compare(s.keys[n-1], e.k) == 0 {
			continue
		}
		s.keys = append(s.keys, e.k)
		starts = append(starts, i)
	}
	s.pos = make([][]int32, len(starts))
	for j, lo := range starts {
		hi := len(all)
		if j+1 < len(starts) {
			hi = starts[j+1]
		}
		s.pos[j] = all[lo:hi:hi]
		slices.Sort(s.pos[j])
	}
}

// Concat returns the index over the rows of idxs laid end to end: their
// parts, each offset by the rows before it. The parts are shared, not
// copied. The result carries a structure only if every input does (a bool
// part has no ordered one), and the inputs' key families must agree
// (NULL-only inputs agree with any). idxs must not be empty.
func Concat(idxs ...*ColumnIndex) (*ColumnIndex, error) {
	if len(idxs) == 1 {
		return idxs[0], nil
	}
	out := &ColumnIndex{Col: idxs[0].Col, hasHash: true, hasOrdered: true}
	for _, ci := range idxs {
		if out.family == famNone {
			out.family = ci.family
		} else if ci.family != famNone && ci.family != out.family {
			return nil, refuse(out.Col, "mixed-type keys")
		}
		out.hasHash = out.hasHash && ci.hasHash
		out.hasOrdered = out.hasOrdered && ci.hasOrdered
		for _, p := range ci.parts {
			out.parts = append(out.parts, part{p.off + int32(out.rows), p.structures})
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
	p, err := buildPart(ci.Col, ci.hasHash, ci.hasOrdered, tail)
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
		return ci.parts[0].distinct()
	}
	floatKeys := false
	for _, p := range ci.parts {
		floatKeys = floatKeys || p.floatKeys
	}
	seen := map[value.Value]struct{}{}
	for _, p := range ci.parts {
		add := func(k value.Value) {
			if n, isInt := k.(int64); isInt && floatKeys {
				k = float64(n)
			}
			seen[k] = struct{}{}
		}
		if p.hasHash {
			for k := range p.hash {
				add(k)
			}
		} else {
			for _, k := range p.keys {
				add(k)
			}
		}
	}
	return int64(len(seen))
}

func (s *structures) distinct() int64 {
	if s.hasHash {
		return int64(len(s.hash))
	}
	return int64(len(s.keys))
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

func (s *structures) lookup(spans []Span) []int32 {
	var out []int32
	for _, sp := range spans {
		if sp.Empty() {
			continue
		}
		if sp.IsPoint() && s.hasHash {
			if k, ok := s.normKey(sp.Lo); ok {
				out = append(out, s.hash[k]...)
			}
			continue
		}
		out = append(out, s.rangeLookup(sp)...)
	}
	if !slices.IsSorted(out) {
		slices.Sort(out)
	}
	if len(spans) > 1 {
		out = dedupPos(out)
	}
	return out
}

func (s *structures) rangeLookup(sp Span) []int32 {
	lo := 0
	if sp.Lo != nil {
		lo = sort.Search(len(s.keys), func(i int) bool {
			c := value.Compare(s.keys[i], sp.Lo)
			if sp.LoInc {
				return c >= 0
			}
			return c > 0
		})
	}
	hi := len(s.keys)
	if sp.Hi != nil {
		hi = sort.Search(len(s.keys), func(i int) bool {
			c := value.Compare(s.keys[i], sp.Hi)
			if sp.HiInc {
				return c > 0
			}
			return c >= 0
		})
	}
	var out []int32
	for i := lo; i < hi; i++ {
		out = append(out, s.pos[i]...)
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
