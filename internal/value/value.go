// Package value defines the runtime representation of nested data: the
// scalars of NRC (int, real, string, bool, date), tuples, bags, and the
// labels introduced by the shredding transformation.
//
// A Value is dynamically typed. The Go nil Value is NULL — the marker
// introduced by outer joins and outer unnests during plan evaluation.
// Arithmetic over NULL yields NULL and comparisons against NULL are false,
// mirroring the plan semantics of Section 2 of the paper.
package value

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Value is one of: nil (NULL), int64, float64, string, bool, Date, Label,
// Tuple, Bag. Any other dynamic type is a programming error and the helper
// functions panic on it.
type Value any

// Date is a calendar date encoded as yyyymmdd. The encoding is ordered, so
// date comparison is integer comparison.
type Date int64

// MakeDate builds a Date from year, month and day.
func MakeDate(y, m, d int) Date { return Date(int64(y)*10000 + int64(m)*100 + int64(d)) }

// Year returns the year component.
func (d Date) Year() int { return int(d / 10000) }

// Month returns the month component.
func (d Date) Month() int { return int(d/100) % 100 }

// Day returns the day component.
func (d Date) Day() int { return int(d % 100) }

// String formats the date as yyyy-mm-dd.
func (d Date) String() string {
	var b [10]byte
	return string(d.AppendText(b[:0]))
}

// AppendText appends the yyyy-mm-dd form to dst. A Date outside years 0–9999
// (MakeDate takes any ints) has no ten-byte form and takes the general
// formatter.
func (d Date) AppendText(dst []byte) []byte {
	y, m, dd := d.Year(), d.Month(), d.Day()
	if d < 0 || y > 9999 {
		return fmt.Appendf(dst, "%04d-%02d-%02d", y, m, dd)
	}
	return append(dst,
		byte('0'+y/1000), byte('0'+y/100%10), byte('0'+y/10%10), byte('0'+y%10), '-',
		byte('0'+m/10), byte('0'+m%10), '-',
		byte('0'+dd/10), byte('0'+dd%10))
}

// ParseDate parses a yyyy-mm-dd string (Date.String's inverse). It accepts
// only the exact 10-character form with plausible month/day components, so
// JSON schema inference can distinguish dates from free-form strings without
// false positives.
func ParseDate(s string) (Date, bool) {
	if len(s) != 10 || s[4] != '-' || s[7] != '-' {
		return 0, false
	}
	n := 0
	for i, c := range []byte(s) {
		if i == 4 || i == 7 {
			continue
		}
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	d := Date(n)
	if d.Month() < 1 || d.Month() > 12 || d.Day() < 1 || d.Day() > 31 {
		return 0, false
	}
	return d, true
}

// Tuple is an ordered sequence of field values. Field names live in the
// schema (the type), not in the value, exactly like engine rows.
type Tuple []Value

// Bag is an unordered collection with multiplicities. Elements are tuples
// or scalars (paper Figure 1 restricts bag contents to flat types or tuple
// types).
type Bag []Value

// Label identifies an inner bag in the shredded representation. Site
// identifies the NewLabel occurrence that created it; Payload carries the
// captured (relevant) attributes of the free variables at that occurrence.
//
// Per the refinement in Section 4 of the paper, construction via NewLabel
// reuses an existing label when the payload is exactly one label value; use
// NewLabel rather than building Label literals so that refinement applies.
type Label struct {
	Site    int32
	Payload Tuple
}

// NewLabel constructs a label for occurrence site with the given captured
// values. When the payload is a single label, that label is reused
// unchanged — the identity-relabeling refinement that makes
// domain-elimination rule 1 sound.
func NewLabel(site int32, payload ...Value) Value {
	if len(payload) == 1 {
		if l, ok := payload[0].(Label); ok {
			return l
		}
	}
	return Label{Site: site, Payload: Tuple(payload)}
}

// IsNull reports whether v is the NULL marker.
func IsNull(v Value) bool { return v == nil }

// AllNull reports whether every column of the row restricted to cols is
// NULL. An empty cols set is vacuously all-NULL.
func AllNull(row Tuple, cols []int) bool {
	for _, c := range cols {
		if row[c] != nil {
			return false
		}
	}
	return true
}

// Clone deep-copies a value. Scalars are immutable and shared.
func Clone(v Value) Value {
	switch x := v.(type) {
	case Tuple:
		out := make(Tuple, len(x))
		for i, e := range x {
			out[i] = Clone(e)
		}
		return out
	case Bag:
		out := make(Bag, len(x))
		for i, e := range x {
			out[i] = Clone(e)
		}
		return out
	case Label:
		return Label{Site: x.Site, Payload: Clone(x.Payload).(Tuple)}
	default:
		return v
	}
}

// Equal reports deep equality of two values. Bags are compared as unordered
// multisets via canonical sorting.
func Equal(a, b Value) bool {
	return Compare(a, b) == 0
}

// typeRank orders the dynamic types so Compare yields a total order across
// heterogeneous values (needed to canonicalize bags).
func typeRank(v Value) int {
	switch v.(type) {
	case nil:
		return 0
	case bool:
		return 1
	case int64:
		return 2
	case float64:
		return 3
	case Date:
		return 4
	case string:
		return 5
	case Label:
		return 6
	case Tuple:
		return 7
	case Bag:
		return 8
	default:
		panic(fmt.Sprintf("value: unsupported type %T", v))
	}
}

// Compare defines a deterministic total order over values: NULL first, then
// by type rank, then by content. Bags compare as sorted multisets, so Compare
// implements multiset equality. Int and Real compare numerically against each
// other when mixed inside one column would otherwise be incomparable.
func Compare(a, b Value) int {
	ra, rb := typeRank(a), typeRank(b)
	// Numeric cross-type comparison keeps int64/float64 columns coherent.
	if (ra == 2 || ra == 3) && (rb == 2 || rb == 3) && ra != rb {
		fa, fb := toF(a), toF(b)
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		default:
			return 0
		}
	}
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch x := a.(type) {
	case nil:
		return 0
	case bool:
		y := b.(bool)
		switch {
		case x == y:
			return 0
		case !x:
			return -1
		default:
			return 1
		}
	case int64:
		y := b.(int64)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		default:
			return 0
		}
	case float64:
		y := b.(float64)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		default:
			return 0
		}
	case Date:
		y := b.(Date)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		default:
			return 0
		}
	case string:
		return strings.Compare(x, b.(string))
	case Label:
		y := b.(Label)
		if x.Site != y.Site {
			if x.Site < y.Site {
				return -1
			}
			return 1
		}
		return Compare(x.Payload, y.Payload)
	case Tuple:
		return CompareSeq(x, b.(Tuple))
	case Bag:
		return CompareSeq(sortedBag(x), sortedBag(b.(Bag)))
	default:
		panic(fmt.Sprintf("value: unsupported type %T", a))
	}
}

func toF(v Value) float64 {
	switch x := v.(type) {
	case int64:
		return float64(x)
	case float64:
		return x
	}
	panic("value: not numeric")
}

// CompareSeq orders two value sequences lexicographically by Compare, a
// proper prefix first. It is Compare on two Tuples without boxing either
// into a Value, which is what sorting rows wants.
func CompareSeq(xs, ys []Value) int {
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	for i := 0; i < n; i++ {
		if c := Compare(xs[i], ys[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(xs) < len(ys):
		return -1
	case len(xs) > len(ys):
		return 1
	default:
		return 0
	}
}

func sortedBag(b Bag) []Value {
	out := make([]Value, len(b))
	copy(out, b)
	sort.Slice(out, func(i, j int) bool { return Compare(out[i], out[j]) < 0 })
	return out
}

// Format renders a value for display: tuples as ⟨…⟩, bags as {…} with
// canonical element order so output is deterministic.
func Format(v Value) string {
	return string(AppendFormat(nil, v))
}

// AppendFormat appends Format(v) to dst.
func AppendFormat(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case nil:
		return append(dst, "NULL"...)
	case bool:
		return strconv.AppendBool(dst, x)
	case int64:
		return strconv.AppendInt(dst, x, 10)
	case float64:
		return strconv.AppendFloat(dst, x, 'g', -1, 64)
	case Date:
		return x.AppendText(dst)
	case string:
		return strconv.AppendQuote(dst, x)
	case Label:
		dst = append(dst, 'L')
		dst = strconv.AppendInt(dst, int64(x.Site), 10)
		return AppendFormat(dst, x.Payload)
	case Tuple:
		return appendSeq(append(dst, "⟨"...), x, "⟩")
	case Bag:
		return appendSeq(append(dst, '{'), sortedBag(x), "}")
	default:
		panic(fmt.Sprintf("value: unsupported type %T", v))
	}
}

func appendSeq(dst []byte, xs []Value, closer string) []byte {
	for i, e := range xs {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = AppendFormat(dst, e)
	}
	return append(dst, closer...)
}
