package ingest

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unicode/utf8"

	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/value"
)

// checkRowsMatchMarshal is the property RowEncoder is pinned to: row by row,
// its bytes are json.Marshal of the EncodeRows map.
func checkRowsMatchMarshal(t *testing.T, rows []value.Tuple, cols []nrc.Field) {
	t.Helper()
	enc := NewRowEncoder(cols)
	for i, m := range EncodeRows(rows, cols) {
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("row %d: reference marshal: %v", i, err)
		}
		if got := enc.AppendRow(nil, rows[i]); !bytes.Equal(got, want) {
			t.Errorf("row %d (%s):\n got %s\nwant %s", i, value.Format(rows[i]), got, want)
		}
	}
}

// checkRoundTrip reads the encoder's NDJSON back through ReadJSONAs and
// expects the rows it was given.
func checkRoundTrip(t *testing.T, rows []value.Tuple, cols []nrc.Field) {
	t.Helper()
	var buf bytes.Buffer
	if err := NewRowEncoder(cols).WriteRows(&buf, rows, "", "\n"); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONAs(&buf, nrc.TupleType{Fields: cols})
	if err != nil {
		t.Fatalf("decode(encode(x)): %v", err)
	}
	want := make(value.Bag, len(rows))
	for i, r := range rows {
		want[i] = r
	}
	if len(back) != len(want) {
		t.Fatalf("decode(encode(x)) has %d rows, want %d", len(back), len(want))
	}
	for i := range want { // row order is kept; inner bags are multisets
		if !value.Equal(back[i], want[i]) {
			t.Errorf("row %d: decode(encode(x)) = %s, want %s", i, value.Format(back[i]), value.Format(want[i]))
		}
	}
}

func TestRowEncoderGoldenCorpus(t *testing.T) {
	item := nrc.TupleType{Fields: []nrc.Field{{Name: "qty", Type: nrc.RealT}, {Name: "pid", Type: nrc.IntT}}}
	cols := []nrc.Field{
		{Name: "n", Type: nrc.IntT},
		{Name: "r", Type: nrc.RealT},
		{Name: "s", Type: nrc.StringT},
		{Name: "b", Type: nrc.BoolT},
		{Name: "d", Type: nrc.DateT},
		{Name: "l", Type: nrc.LabelType{}},
		{Name: "items", Type: nrc.BagType{Elem: item}},
		{Name: "tags", Type: nrc.BagType{Elem: nrc.StringT}},
		{Name: "deep", Type: nrc.BagType{Elem: nrc.TupleType{Fields: []nrc.Field{
			{Name: "k", Type: nrc.IntT}, {Name: "inner", Type: nrc.BagType{Elem: item}}}}}},
		{Name: `we"ird <key>&` + "\u2028\xff", Type: nrc.IntT},
		{Name: "", Type: nrc.IntT},
	}
	row := func(over map[int]value.Value) value.Tuple {
		r := value.Tuple{int64(1), 2.5, "s", true, value.MakeDate(2024, 1, 31),
			value.Label{Site: 3, Payload: value.Tuple{int64(7), "x<y", nil}},
			value.Bag{value.Tuple{1.5, int64(2)}}, value.Bag{"a"},
			value.Bag{value.Tuple{int64(1), value.Bag{value.Tuple{0.25, int64(9)}}}},
			int64(0), int64(0)}
		for i, v := range over {
			r[i] = v
		}
		return r
	}
	var rows []value.Tuple
	rows = append(rows, row(nil), make(value.Tuple, len(cols))) // every column NULL
	for _, n := range []int64{0, -1, math.MinInt64, math.MaxInt64} {
		rows = append(rows, row(map[int]value.Value{0: n}))
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -2.5, 1e20, 1e21, 9.999999999999999e20, 1.5e21, -1e21,
		1e-6, 9.99e-7, 1e-7, -1e-9, 1e-10, 1e100, 1e-100, 5e-324, math.MaxFloat64, 123456789.125, 0.1 + 0.2} {
		rows = append(rows, row(map[int]value.Value{1: f}))
	}
	for _, s := range []string{"", "plain", `quo"te`, `back\slash`, "\b\f\n\r\t", "\x00\x01\x1f\x7f", "<script>&amp;</script>",
		"line\u2028para\u2029end", "héllo ⟨wörld⟩ 😀", "bad\xffutf8", "\xc3", "\xe2\x80", "a\xf0\x9f\x98", strings.Repeat("long ", 2000)} {
		rows = append(rows, row(map[int]value.Value{2: s}))
	}
	rows = append(rows,
		row(map[int]value.Value{3: false}),
		row(map[int]value.Value{4: value.Date(0)}),
		row(map[int]value.Value{4: value.MakeDate(9999, 12, 31)}),
		row(map[int]value.Value{4: value.MakeDate(12345, 1, 1)}),
		row(map[int]value.Value{5: value.Label{Site: 0, Payload: value.Tuple{}}}),
		row(map[int]value.Value{5: value.Label{Site: 1, Payload: value.Tuple{value.Label{Site: 2, Payload: value.Tuple{value.Date(20200505), 2.5, true}}}}}),
		row(map[int]value.Value{6: value.Bag{}, 7: value.Bag(nil), 8: value.Bag{}}),
		row(map[int]value.Value{6: value.Bag{value.Tuple{nil, nil}, nil, value.Tuple{1e21, int64(-3)}}}),
		row(map[int]value.Value{7: value.Bag{"x", nil, "<", "\xff"}}),
		row(map[int]value.Value{8: value.Bag{
			value.Tuple{int64(1), value.Bag{}},
			value.Tuple{int64(2), nil},
			value.Tuple{int64(3), value.Bag{value.Tuple{1.0, int64(1)}, value.Tuple{2.0, int64(2)}}}}}),
		// Values that contradict their static type render as Encode renders
		// them: scalars by their dynamic type, the rest in display form.
		row(map[int]value.Value{0: 2.5, 1: int64(3), 2: int64(4), 3: "true", 4: "2024-01-31"}),
		row(map[int]value.Value{0: value.Date(20240131), 2: value.Bag{int64(1)}, 3: value.Tuple{"t"}}),
		row(map[int]value.Value{6: int64(5), 7: "not a bag", 8: value.Tuple{int64(1)}}),                              // a non-bag where a bag is typed
		row(map[int]value.Value{6: value.Bag{int64(5), "str", value.Bag{int64(1)}}}),                                 // a non-tuple where a tuple is typed
		row(map[int]value.Value{6: value.Bag{value.Tuple{1.5}, value.Tuple{}, value.Tuple{1.5, int64(2), "extra"}}}), // inner rows shorter and longer than their schema
		row(nil)[:3], row(nil)[:0], // rows shorter than their schema
		append(row(nil), "extra"), // and longer
	)
	checkRowsMatchMarshal(t, rows, cols)

	// Two columns of one name: a map keeps the last.
	dup := []nrc.Field{{Name: "a", Type: nrc.IntT}, {Name: "b", Type: nrc.IntT}, {Name: "a", Type: nrc.StringT}}
	checkRowsMatchMarshal(t, []value.Tuple{{int64(1), int64(2), "three"}}, dup)
	checkRowsMatchMarshal(t, []value.Tuple{{}}, nil)
}

// Non-finite reals have no JSON form: both the encoder and the reference
// render them as null, so a reply holding one stays parseable.
func TestNonFiniteRealsEncodeAsNull(t *testing.T) {
	cols := []nrc.Field{{Name: "x", Type: nrc.RealT}, {Name: "xs", Type: nrc.BagType{Elem: nrc.RealT}}}
	rows := []value.Tuple{
		{math.Inf(1), value.Bag{math.Inf(-1), 1.5, math.NaN()}},
		{math.NaN(), value.Bag{}},
	}
	checkRowsMatchMarshal(t, rows, cols)
	got := string(NewRowEncoder(cols).AppendRow(nil, rows[0]))
	if want := `{"x":null,"xs":[null,1.5,null]}`; got != want {
		t.Fatalf("got %s, want %s", got, want)
	}
}

func TestRowEncoderRoundTrip(t *testing.T) {
	item := nrc.TupleType{Fields: []nrc.Field{{Name: "pid", Type: nrc.IntT}, {Name: "qty", Type: nrc.RealT}}}
	cols := []nrc.Field{
		{Name: "cust", Type: nrc.StringT},
		{Name: "when", Type: nrc.DateT},
		{Name: "ok", Type: nrc.BoolT},
		{Name: "n", Type: nrc.IntT},
		{Name: "orders", Type: nrc.BagType{Elem: item}},
	}
	rows := []value.Tuple{
		{"alice <a&b> \"q\" \\ \u2028", value.MakeDate(2021, 6, 30), true, int64(math.MinInt64), value.Bag{value.Tuple{int64(1), 2.5}, value.Tuple{int64(2), 1e21}}},
		{nil, nil, nil, nil, nil},
		{"", value.MakeDate(1, 1, 1), false, int64(math.MaxInt64), value.Bag{}},
		{"tab\tnl\n\x01", value.MakeDate(1999, 12, 31), true, int64(0), value.Bag{value.Tuple{nil, math.Copysign(0, -1)}, value.Tuple{int64(3), 1e-7}}},
	}
	checkRoundTrip(t, rows, cols)
}

// WriteRows frames rows the two ways its callers need and flushes as it goes.
func TestWriteRowsFraming(t *testing.T) {
	cols := []nrc.Field{{Name: "a", Type: nrc.IntT}}
	enc := NewRowEncoder(cols)
	rows := []value.Tuple{{int64(1)}, {int64(2)}, {int64(3)}}
	var buf bytes.Buffer
	if err := enc.WriteRows(&buf, rows, "", "\n"); err != nil || buf.String() != "{\"a\":1}\n{\"a\":2}\n{\"a\":3}" {
		t.Fatalf("NDJSON framing: %q, %v", buf.String(), err)
	}
	buf.Reset()
	if err := enc.WriteRows(&buf, rows[:2], "\n    ", ","); err != nil || buf.String() != "\n    {\"a\":1},\n    {\"a\":2}" {
		t.Fatalf("array framing: %q, %v", buf.String(), err)
	}
	buf.Reset()
	if err := enc.WriteRows(&buf, nil, "\n    ", ","); err != nil || buf.Len() != 0 {
		t.Fatalf("no rows: %q, %v", buf.String(), err)
	}

	// More than one buffer's worth arrives in several writes, none much
	// larger than the flush size, and concatenates to the same bytes.
	many := make([]value.Tuple, 20000)
	for i := range many {
		many[i] = value.Tuple{int64(i)}
	}
	var cw chunkWriter
	if err := enc.WriteRows(&cw, many, "", "\n"); err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i, r := range many {
		if i > 0 {
			want = append(want, '\n')
		}
		want = enc.AppendRow(want, r)
	}
	if !bytes.Equal(cw.all, want) {
		t.Fatal("chunked output differs from the rows appended in one piece")
	}
	if cw.writes < 2 || cw.largest > flushAt+64 {
		t.Fatalf("%d writes, largest %d bytes; want several of about %d", cw.writes, cw.largest, flushAt)
	}
}

// A single row of about 300 KB — a bag of 6 000 tuples, each with a bag of
// its own — reaches the writer in several writes, none larger than the flush
// size plus one scalar and its punctuation, whether its bags are values or
// written element by element by a Bags; both write the bytes AppendRow does.
func TestRowStreamsInsideItsBags(t *testing.T) {
	leaf := strings.Repeat("x", 40)
	item := nrc.Tup("name", nrc.StringT, "tags", nrc.BagOf(nrc.IntT))
	cols := []nrc.Field{{Name: "id", Type: nrc.IntT}, {Name: "items", Type: nrc.BagType{Elem: item}}}
	items := make(value.Bag, 6000)
	for i := range items {
		items[i] = value.Tuple{leaf, value.Bag{int64(i), int64(2 * i)}}
	}
	row := value.Tuple{int64(1), items}
	enc := NewRowEncoder(cols)
	want := enc.AppendRow(nil, row)
	if len(want) < 300<<10 {
		t.Fatalf("the row is %d bytes", len(want))
	}
	for name, write := range map[string]func(rw *RowWriter){
		"values": func(rw *RowWriter) { rw.Row(row, nil) },
		"bags":   func(rw *RowWriter) { rw.Row(value.Tuple{int64(1), nil}, &bagWalk{items: items}) },
	} {
		var cw chunkWriter
		rw := enc.NewWriter(&cw, "", "\n")
		write(rw)
		if err := rw.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cw.all, want) {
			t.Fatalf("%s: streamed bytes differ from AppendRow's", name)
		}
		if cw.writes < 9 || cw.largest > flushAt+len(leaf)+16 {
			t.Fatalf("%s: %d writes, the largest %d bytes; want several, each at most %d", name, cw.writes, cw.largest, flushAt+len(leaf)+16)
		}
	}
}

// bagWalk writes the items field of a row, and each item's tags, element by
// element (Bags): an item is its name and, in place of its tags, NULL.
type bagWalk struct {
	items value.Bag
	cur   value.Tuple // the item being written
}

func (b *bagWalk) Bag(rw *RowWriter, col int) {
	if col == 1 && b.cur != nil { // an item's tags
		for _, tg := range b.cur[1].(value.Bag) {
			rw.Value(tg)
		}
		return
	}
	for _, it := range b.items {
		b.cur = it.(value.Tuple)
		rw.Tuple(value.Tuple{b.cur[0], nil}, b)
	}
	b.cur = nil
}

type chunkWriter struct {
	all             []byte
	writes, largest int
}

func (w *chunkWriter) Write(p []byte) (int, error) {
	w.all = append(w.all, p...)
	w.writes++
	w.largest = max(w.largest, len(p))
	return len(p), nil
}

// valueGen draws schemas and values from a seeded source. exact reports
// whether everything drawn so far survives decode(encode(x)): valid UTF-8,
// finite, label-free, conforming to its type, under distinct column names.
type valueGen struct {
	rng   *rand.Rand
	exact bool
}

var fuzzStrings = []string{"", "a", `"`, `\`, "<>&", "\u2028", "\u2029", "\n", "\x00", "\x1f", "\x7f", "é", "😀", "\xff", "\xc3", "2024-01-31"}

func (g *valueGen) str() string {
	var sb strings.Builder
	for n := g.rng.Intn(4); n > 0; n-- {
		sb.WriteString(fuzzStrings[g.rng.Intn(len(fuzzStrings))])
	}
	if !utf8.ValidString(sb.String()) {
		g.exact = false
	}
	return sb.String()
}

func (g *valueGen) real() float64 {
	switch g.rng.Intn(8) {
	case 0:
		g.exact = false
		return []float64{math.Inf(1), math.Inf(-1), math.NaN()}[g.rng.Intn(3)]
	case 1:
		return []float64{0, math.Copysign(0, -1), 1e21, 1e-6, 9.999999999999999e20, 9.99e-7, 5e-324, math.MaxFloat64}[g.rng.Intn(8)]
	case 2:
		return math.Float64frombits(g.rng.Uint64()&^(0x7ff<<52) | uint64(g.rng.Intn(2046)+1)<<52) // any finite normal
	}
	return math.Round(g.rng.NormFloat64()*1e4) / 100
}

func (g *valueGen) value(t nrc.Type, depth int) value.Value {
	switch g.rng.Intn(12) {
	case 0:
		return nil
	case 1: // a value that contradicts its type
		g.exact = false
		return []value.Value{int64(7), 2.5, "s", true, value.Date(20200101), value.Label{Site: 1, Payload: value.Tuple{"p"}},
			value.Tuple{int64(1)}, value.Bag{int64(1)}}[g.rng.Intn(8)]
	}
	switch tt := t.(type) {
	case nrc.ScalarType:
		switch tt.Kind {
		case nrc.Int:
			return []int64{0, -1, math.MinInt64, math.MaxInt64, g.rng.Int63n(1000)}[g.rng.Intn(5)]
		case nrc.Real:
			return g.real()
		case nrc.Bool:
			return g.rng.Intn(2) == 0
		case nrc.DateK:
			return value.MakeDate(g.rng.Intn(10000), 1+g.rng.Intn(12), 1+g.rng.Intn(31))
		}
		return g.str()
	case nrc.LabelType:
		g.exact = false
		return value.Label{Site: int32(g.rng.Intn(4)), Payload: value.Tuple{g.value(nrc.IntT, depth), g.str()}}
	case nrc.TupleType:
		tp := make(value.Tuple, len(tt.Fields))
		for i, f := range tt.Fields {
			tp[i] = g.value(f.Type, depth)
		}
		if g.rng.Intn(16) == 0 && len(tp) > 0 {
			g.exact = false
			tp = tp[:g.rng.Intn(len(tp))] // shorter than its schema
		}
		return tp
	case nrc.BagType:
		b := make(value.Bag, g.rng.Intn(4))
		for i := range b {
			b[i] = g.value(tt.Elem, depth+1)
		}
		return b
	}
	panic("unreachable")
}

func (g *valueGen) typ(depth int) nrc.Type {
	switch n := g.rng.Intn(9); {
	case n < 5:
		return []nrc.Type{nrc.IntT, nrc.RealT, nrc.StringT, nrc.BoolT, nrc.DateT}[n]
	case n == 5:
		return nrc.LabelType{}
	case depth >= 3:
		return nrc.StringT
	case n == 6:
		return nrc.BagType{Elem: g.typ(depth + 1)}
	default:
		return nrc.BagType{Elem: g.tuple(depth + 1)}
	}
}

func (g *valueGen) tuple(depth int) nrc.TupleType {
	fs := make([]nrc.Field, g.rng.Intn(5))
	for i := range fs {
		fs[i] = nrc.Field{Name: string(rune('a'+i)) + g.str(), Type: g.typ(depth)}
		if i > 0 && g.rng.Intn(16) == 0 {
			g.exact = false
			fs[i].Name = fs[i-1].Name // a map keeps the last of two columns of one name
		}
	}
	return nrc.TupleType{Fields: fs}
}

// FuzzRowEncoderMatchesMarshal drives a random schema and random rows — of
// every kind, conforming to the schema or not — through both properties:
// encoder bytes == json.Marshal(EncodeRows), and, for rows JSON can carry
// exactly, ReadJSONAs(encode(x)) = x.
func FuzzRowEncoderMatchesMarshal(f *testing.F) {
	for seed := int64(0); seed < 32; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		g := &valueGen{rng: rand.New(rand.NewSource(seed))}
		g.exact = true
		cols := g.tuple(0).Fields
		rows := make([]value.Tuple, 1+g.rng.Intn(4))
		for i := range rows {
			rows[i], _ = g.value(nrc.TupleType{Fields: cols}, 0).(value.Tuple)
			g.exact = g.exact && len(rows[i]) == len(cols)
		}
		checkRowsMatchMarshal(t, rows, cols)
		if g.exact {
			checkRoundTrip(t, rows, cols)
		}
	})
}
