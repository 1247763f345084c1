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
	rw := RowWriter{buf: dst}
	rw.fields(&e.row, row, nil)
	return rw.buf
}

// RowWriter streams rows to an io.Writer through a pooled buffer. The buffer
// goes to the writer whenever it passes flushAt — between rows, and inside a
// row after any scalar, in a bag too — so a reply never holds more than
// flushAt bytes plus one scalar, and a huge row never grows the buffer. A
// row's bags are value.Bag values, or are written element by element by a
// Bags.
type RowWriter struct {
	row       *encNode
	w         io.Writer
	buf       []byte
	err       error
	lead, sep string
	rows      int
	// elem and first are the bag a Bags is writing: its element schema, and
	// whether none of its elements is written yet.
	elem  *encNode
	first bool
}

// Bags writes the bags of rows that hold them as something other than
// value.Bag values — the labels of a shredded output — element by element.
// For each bag-typed field col of a tuple the writer reaches with bags — a
// row, or an element Tuple wrote — in the schema's order of names, the writer
// opens the array, calls Bag, and closes it; Bag writes the bag's elements
// with Tuple or Value.
type Bags interface {
	Bag(rw *RowWriter, col int)
}

// NewWriter starts streaming rows to w, each written as lead followed by its
// object and consecutive rows joined by sep: ("", "\n") is NDJSON without its
// final newline, ("\n    ", ",") the elements of an indented array. Close
// hands over what is left.
func (e *RowEncoder) NewWriter(w io.Writer, lead, sep string) *RowWriter {
	rw := rowWriters.Get().(*RowWriter)
	rw.row, rw.w, rw.lead, rw.sep = &e.row, w, lead, sep
	return rw
}

// Row writes one row, its bag fields read by bags when bags is not nil.
// After a failed write it writes nothing.
func (rw *RowWriter) Row(row value.Tuple, bags Bags) {
	if rw.err != nil {
		return
	}
	if rw.rows > 0 {
		rw.buf = append(rw.buf, rw.sep...)
	}
	rw.rows++
	rw.buf = append(rw.buf, rw.lead...)
	rw.fields(rw.row, row, bags)
	rw.spill()
}

// Tuple writes a tuple element of the bag a Bags is writing, its bag fields
// read by bags.
func (rw *RowWriter) Tuple(t value.Tuple, bags Bags) {
	rw.comma()
	rw.fields(rw.elem, t, bags)
}

// Value writes an element of the bag a Bags is writing whose own bags, if it
// has any, are values: a scalar, or a tuple of them.
func (rw *RowWriter) Value(v value.Value) {
	rw.comma()
	rw.value(rw.elem, v)
}

// Close hands the rest of the buffer to the writer and returns the first
// write error; rw is not used again.
func (rw *RowWriter) Close() error {
	if rw.err == nil && len(rw.buf) > 0 {
		_, rw.err = rw.w.Write(rw.buf)
	}
	err := rw.err
	if cap(rw.buf) <= 8*flushAt { // one huge scalar must not pin its buffer in the pool
		*rw = RowWriter{buf: rw.buf[:0]}
		rowWriters.Put(rw)
	}
	return err
}

// spill hands the buffer to the writer once it has passed flushAt.
func (rw *RowWriter) spill() {
	if len(rw.buf) < flushAt || rw.w == nil {
		return
	}
	if rw.err == nil {
		_, rw.err = rw.w.Write(rw.buf)
	}
	rw.buf = rw.buf[:0]
}

func (rw *RowWriter) comma() {
	if !rw.first {
		rw.buf = append(rw.buf, ',')
	}
	rw.first = false
}

func (rw *RowWriter) fields(n *encNode, t value.Tuple, bags Bags) {
	rw.buf = append(rw.buf, '{')
	first := true
	for i := range n.fields {
		f := &n.fields[i]
		if f.col >= len(t) || f.shadowed && n.fields[i+1].col < len(t) {
			continue // a row shorter than its schema omits the missing fields
		}
		if !first {
			rw.buf = append(rw.buf, ',')
		}
		first = false
		rw.buf = append(rw.buf, f.key...)
		if bags == nil || f.kind != encBag {
			rw.value(&f.encNode, t[f.col])
			continue
		}
		elem, efirst := rw.elem, rw.first
		rw.elem, rw.first = f.elem, true
		rw.buf = append(rw.buf, '[')
		bags.Bag(rw, f.col)
		rw.buf = append(rw.buf, ']')
		rw.elem, rw.first = elem, efirst
	}
	rw.buf = append(rw.buf, '}')
}

func (rw *RowWriter) value(n *encNode, v value.Value) {
	if v == nil {
		rw.buf = append(rw.buf, "null"...)
		rw.spill()
		return
	}
	switch n.kind {
	case encBag:
		if b, ok := v.(value.Bag); ok {
			rw.buf = append(rw.buf, '[')
			for i, e := range b {
				if i > 0 {
					rw.buf = append(rw.buf, ',')
				}
				rw.value(n.elem, e)
			}
			rw.buf = append(rw.buf, ']')
			return
		}
	case encTuple:
		if t, ok := v.(value.Tuple); ok {
			rw.fields(n, t, nil)
			return
		}
	default:
		if dst, ok := appendScalar(rw.buf, v); ok {
			rw.buf = dst
			rw.spill()
			return
		}
	}
	// Labels, and any value that contradicts its static type.
	var scratch [128]byte
	rw.buf = appendString(rw.buf, value.AppendFormat(scratch[:0], v))
	rw.spill()
}

// appendScalar appends a scalar of a JSON type, or reports that v is none.
func appendScalar(dst []byte, v value.Value) ([]byte, bool) {
	switch x := v.(type) {
	case int64:
		return strconv.AppendInt(dst, x, 10), true
	case float64:
		return appendFloat(dst, x), true
	case string:
		return appendString(dst, x), true
	case bool:
		return strconv.AppendBool(dst, x), true
	case value.Date:
		dst = append(dst, '"')
		return append(x.AppendText(dst), '"'), true
	}
	return dst, false
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

// flushAt is the buffered size past which a RowWriter hands its bytes to
// the writer: large enough to amortize the write, small enough that a big
// reply never sits in memory whole.
const flushAt = 32 << 10

var rowWriters = sync.Pool{New: func() any {
	return &RowWriter{buf: make([]byte, 0, flushAt+flushAt/4)}
}}

// WriteRows streams rows to w through a RowWriter framed by lead and sep (see
// NewWriter).
func (e *RowEncoder) WriteRows(w io.Writer, rows []value.Tuple, lead, sep string) error {
	rw := e.NewWriter(w, lead, sep)
	for _, row := range rows {
		rw.Row(row, nil)
	}
	return rw.Close()
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
