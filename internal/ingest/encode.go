package ingest

import (
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"unicode/utf8"

	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/value"
)

// RowEncoder renders result rows as compact JSON objects: tuples become
// objects (field names come from the type, in sorted order), bags become
// arrays, dates render as yyyy-mm-dd strings, labels in their textual form,
// NULL and non-finite reals as null. It is the inverse of ReadJSON's
// conversion, so ingested data round-trips (modulo bag order, which is
// unspecified). The schema is walked once, in NewRowEncoder; encoding a row
// follows the compiled steps and appends bytes — no maps, no reflection.
// A row's bytes equal json.Marshal of its EncodeRows map. Immutable, so one
// encoder serves any number of goroutines.
type RowEncoder struct{ row encNode }

// encNode is one position of the schema. A tuple carries its fields, a bag
// its element; every other type is a leaf, rendered by the value's dynamic
// type (as Encode does, so an int column holding a real stays faithful).
type encNode struct {
	fields []encField // tuple, sorted by name
	elem   *encNode   // bag
	kind   encKind
}

type encKind uint8

const (
	encLeaf encKind = iota
	encTuple
	encBag
)

type encField struct {
	key string // `"name":`, escaped
	col int
	// shadowed marks a field whose successor has the same name: a map keeps
	// the last value set, so the later column wins whenever the row has it.
	shadowed bool
	encNode
}

// NewRowEncoder compiles the encoder for rows with the given columns.
func NewRowEncoder(cols []nrc.Field) *RowEncoder {
	return &RowEncoder{row: compileNode(nrc.TupleType{Fields: cols})}
}

func compileNode(t nrc.Type) encNode {
	switch tt := t.(type) {
	case nrc.BagType:
		elem := compileNode(tt.Elem)
		return encNode{kind: encBag, elem: &elem}
	case nrc.TupleType:
		fields := make([]encField, len(tt.Fields))
		for i, f := range tt.Fields {
			key := append(appendString(nil, f.Name), ':')
			fields[i] = encField{key: string(key), col: i, encNode: compileNode(f.Type)}
		}
		// encoding/json sorts map keys as raw strings, before escaping.
		sort.SliceStable(fields, func(i, j int) bool { return tt.Fields[fields[i].col].Name < tt.Fields[fields[j].col].Name })
		for i := 0; i+1 < len(fields); i++ {
			fields[i].shadowed = fields[i].key == fields[i+1].key
		}
		return encNode{kind: encTuple, fields: fields}
	}
	return encNode{}
}

// AppendRow appends one row's JSON object to dst.
func (e *RowEncoder) AppendRow(dst []byte, row value.Tuple) []byte {
	return e.row.appendFields(dst, row)
}

func (n *encNode) appendFields(dst []byte, t value.Tuple) []byte {
	dst = append(dst, '{')
	first := true
	for i := range n.fields {
		f := &n.fields[i]
		if f.col >= len(t) || f.shadowed && n.fields[i+1].col < len(t) {
			continue // a row shorter than its schema omits the missing fields
		}
		if !first {
			dst = append(dst, ',')
		}
		first = false
		dst = append(dst, f.key...)
		dst = f.append(dst, t[f.col])
	}
	return append(dst, '}')
}

func (n *encNode) append(dst []byte, v value.Value) []byte {
	if v == nil {
		return append(dst, "null"...)
	}
	switch n.kind {
	case encBag:
		if b, ok := v.(value.Bag); ok {
			dst = append(dst, '[')
			for i, e := range b {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = n.elem.append(dst, e)
			}
			return append(dst, ']')
		}
	case encTuple:
		if t, ok := v.(value.Tuple); ok {
			return n.appendFields(dst, t)
		}
	default:
		switch x := v.(type) {
		case int64:
			return strconv.AppendInt(dst, x, 10)
		case float64:
			return appendFloat(dst, x)
		case string:
			return appendString(dst, x)
		case bool:
			return strconv.AppendBool(dst, x)
		case value.Date:
			dst = append(dst, '"')
			return append(x.AppendText(dst), '"')
		}
	}
	// Labels, and any value that contradicts its static type.
	var scratch [128]byte
	return appendString(dst, value.AppendFormat(scratch[:0], v))
}

// appendFloat follows encoding/json: shortest round-trip digits, exponent
// form below 1e-6 and from 1e21 with a two-digit exponent trimmed to one.
// JSON has no non-finite numbers; they render as null.
func appendFloat(dst []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return append(dst, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

const hex = "0123456789abcdef"

// appendString quotes s with encoding/json's default escaping: two-byte
// escapes for `"`, `\` and \b \f \n \r \t; \u00XX for the other control bytes
// and for < > & (its HTML escaping is on by default); \u2028 and \u2029; and
// \ufffd for each byte of invalid UTF-8.
func appendString[S []byte | string](dst []byte, s S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b >= utf8.RuneSelf {
			n := min(len(s)-i, utf8.UTFMax)
			c, size := utf8.DecodeRuneInString(string(s[i : i+n]))
			switch {
			case c == utf8.RuneError && size == 1:
				dst = append(append(dst, s[start:i]...), `\ufffd`...)
				start = i + size
			case c == '\u2028' || c == '\u2029':
				dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xF])
				start = i + size
			}
			i += size
			continue
		}
		if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
			i++
			continue
		}
		dst = append(dst, s[start:i]...)
		switch b {
		case '\\', '"':
			dst = append(dst, '\\', b)
		case '\b':
			dst = append(dst, '\\', 'b')
		case '\f':
			dst = append(dst, '\\', 'f')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
		}
		i++
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// flushAt is the buffered size past which WriteRows hands its bytes to the
// writer: large enough to amortize the write, small enough that a big reply
// never sits in memory whole.
const flushAt = 32 << 10

var rowBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, flushAt+flushAt/4)
	return &b
}}

// WriteRows streams rows to w through a pooled buffer, each row written as
// lead followed by its object and consecutive rows joined by sep: ("", "\n")
// is NDJSON without its final newline, ("\n    ", ",") the elements of an
// indented array.
func (e *RowEncoder) WriteRows(w io.Writer, rows []value.Tuple, lead, sep string) error {
	bp := rowBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	var err error
	for i, row := range rows {
		if i > 0 {
			buf = append(buf, sep...)
		}
		buf = append(buf, lead...)
		buf = e.AppendRow(buf, row)
		if len(buf) >= flushAt {
			if _, err = w.Write(buf); err != nil {
				break
			}
			buf = buf[:0]
		}
	}
	if err == nil && len(buf) > 0 {
		_, err = w.Write(buf)
	}
	if cap(buf) <= 8*flushAt { // one huge row must not pin its buffer in the pool
		*bp = buf[:0]
		rowBufPool.Put(bp)
	}
	return err
}

// Encode renders a runtime value as a json.Marshal-able Go value guided by
// its static type, and EncodeRows a flat result dataset — rows plus their
// column schema — as one map per row. They are the reference RowEncoder is
// pinned against, and what library callers get who want Go values rather
// than bytes (Result.JSON).
func Encode(v value.Value, t nrc.Type) any {
	if v == nil {
		return nil
	}
	switch tt := t.(type) {
	case nrc.BagType:
		b, ok := v.(value.Bag)
		if !ok {
			return value.Format(v)
		}
		out := make([]any, len(b))
		for i, e := range b {
			out[i] = Encode(e, tt.Elem)
		}
		return out
	case nrc.TupleType:
		tp, ok := v.(value.Tuple)
		if !ok {
			return value.Format(v)
		}
		return encodeFields(tp, tt.Fields)
	}
	switch x := v.(type) {
	case float64:
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return nil // JSON has no non-finite numbers
		}
		return x
	case int64, string, bool:
		return x
	case value.Date:
		return x.String()
	default:
		return value.Format(v) // labels and anything exotic
	}
}

// EncodeRows is Encode over the rows of a result; see there.
func EncodeRows(rows []value.Tuple, cols []nrc.Field) []map[string]any {
	out := make([]map[string]any, len(rows))
	for i, row := range rows {
		out[i] = encodeFields(row, cols)
	}
	return out
}

func encodeFields(tp value.Tuple, fields []nrc.Field) map[string]any {
	m := make(map[string]any, len(fields))
	for i, f := range fields {
		if i < len(tp) {
			m[f.Name] = Encode(tp[i], f.Type)
		}
	}
	return m
}
