package shred

import (
	"sort"

	"github.com/trance-go/trance/internal/dataflow"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/value"
)

// ShreddedInput is the value-shredded form of an input relation: the flat top
// rows and one flat (label, element…) dictionary per nesting path, keyed by
// materialized name (MatName).
type ShreddedInput struct {
	Name string
	// Rows holds the top rows and, unless the input was shredded placed, every
	// dictionary's rows.
	Rows map[string][]value.Tuple
	// Placed holds every dictionary of an input shredded placed: its rows
	// hash-placed on their label (column 0), each partition in input order.
	Placed map[string]*dataflow.Placed
	// Labels is how many labels the shredding minted: every label it put in
	// a row has a sequence number (LabelSeq) from labelBase+1 to
	// labelBase+Labels.
	Labels int64
}

// ShredInput value-shreds a nested bag: every inner bag instance is replaced
// by a fresh label and its elements land in the dictionary of its path. This
// is the value shredding function of paper Section 4.
func ShredInput(name string, b value.Bag, t nrc.BagType) (*ShreddedInput, error) {
	return ShredInputFrom(name, b, t, 0, 0)
}

// ShredInputFrom is ShredInput numbering its labels from labelBase+1 rather
// than 1 and, with parts > 0, placing every dictionary over parts partitions
// on its label as it goes: a row lands in the partition its label hashes to,
// after the rows that landed there before it — where an exchange on the label
// over the flat dictionary would put it. Labels are opaque keys that only have
// to be distinct within an input, so runs of one input's rows shredded from
// disjoint label ranges concatenate, component by component (and partition by
// partition), into a shredding of the whole input.
func ShredInputFrom(name string, b value.Bag, t nrc.BagType, labelBase int64, parts int) (*ShreddedInput, error) {
	_, dicts, err := ShredType(t)
	if err != nil {
		return nil, err
	}
	s := &shredder{input: name, parts: parts, label: labelBase, sinks: map[string]*rowSink{}}
	top := newRowSink(0)
	s.shredBag(b, s.shapeOf(t.Elem, nil), nil, top)
	si := &ShreddedInput{Name: name, Rows: map[string][]value.Tuple{MatName(name, nil): top.parts[0]}, Labels: s.label - labelBase}
	if parts > 0 {
		si.Placed = map[string]*dataflow.Placed{}
	}
	for _, d := range dicts {
		key := MatName(name, d.Path)
		k := s.sinks[key]
		if parts > 0 {
			si.Placed[key] = &dataflow.Placed{Cols: []int{0}, Parts: k.parts, Hashes: k.hashes}
		} else {
			si.Rows[key] = k.parts[0]
		}
	}
	return si, nil
}

// shredder is one value shredding of an input: the label last minted and the
// rows of each dictionary, placed over parts partitions (0: not placed).
type shredder struct {
	input string
	parts int
	label int64
	sinks map[string]*rowSink
}

// shape is what value shredding needs of a bag's element type, worked out
// once per input rather than once per element: whether the elements are
// tuples and how wide, and for each bag-valued field the site its labels
// carry, the dictionary its elements go to and their own shape.
type shape struct {
	tuple bool
	width int
	bags  []*dictField // by field position; nil for a field that is not a bag
}

type dictField struct {
	site int32
	dict *rowSink
	elem *shape
}

func (s *shredder) shapeOf(elem nrc.Type, path []string) *shape {
	tt, ok := elem.(nrc.TupleType)
	if !ok {
		return &shape{width: 1}
	}
	sh := &shape{tuple: true, width: len(tt.Fields), bags: make([]*dictField, len(tt.Fields))}
	for i, f := range tt.Fields {
		if bt, isBag := f.Type.(nrc.BagType); isBag {
			sub := append(append([]string{}, path...), f.Name)
			k := newRowSink(s.parts)
			s.sinks[MatName(s.input, sub)] = k
			sh.bags[i] = &dictField{site: inputSite(s.input, sub), dict: k, elem: s.shapeOf(bt.Elem, sub)}
		}
	}
	return sh
}

// shredBag adds a row per element of b to out — led by lead, the label of the
// bag the elements came from, on a dictionary (lead nil: the top rows) — with
// a fresh label in place of each inner bag, whose elements it adds to that
// bag's dictionary in turn. Every row of one inner bag shares one label value,
// and so one partition.
func (s *shredder) shredBag(b value.Bag, sh *shape, lead value.Value, out *rowSink) {
	off, t, h := 0, 0, uint64(0)
	if lead != nil {
		off = 1
		if out.hashes != nil {
			h = value.Hash64(lead)
			t = int(h % uint64(len(out.parts)))
		}
	}
	for _, e := range b {
		row := out.add(t, h, off+sh.width)
		if lead != nil {
			row[0] = lead
		}
		if !sh.tuple {
			row[off] = e
			continue
		}
		src := e.(value.Tuple)
		for i := range sh.width {
			d := sh.bags[i]
			if d == nil {
				row[off+i] = src[i]
				continue
			}
			s.label++
			lbl := value.Value(value.Label{Site: d.site, Payload: value.Tuple{s.label}})
			row[off+i] = lbl
			s.shredBag(src[i].(value.Bag), d.elem, lbl, d.dict)
		}
	}
}

// rowSink collects one component's rows: over one partition (the top rows, or
// a dictionary not placed), or over the partitions its rows' labels hash to
// (hashes). Each partition cuts its rows from blocks of its own, so a scan of
// a partition reads its rows in memory order, as a scan of a contiguous range
// of the flat rows does.
type rowSink struct {
	parts  [][]value.Tuple
	hashes [][]uint64 // nil: not placed
	free   [][]value.Value
}

// newRowSink is a sink placing its rows over parts partitions (0: not placed).
func newRowSink(parts int) *rowSink {
	k := &rowSink{parts: make([][]value.Tuple, max(parts, 1)), free: make([][]value.Value, max(parts, 1))}
	if parts > 0 {
		k.hashes = make([][]uint64, parts)
	}
	return k
}

// sinkBlockRows bounds how many rows a block holds: a partition's next block
// holds twice the rows it has so far, at least 8, so what a partition leaves
// unused is less than one block and at most sinkBlockRows rows.
const sinkBlockRows = 256

// add appends a zeroed row of width cells to partition t, whose label hashes
// to h when the sink is placed, and returns it.
func (k *rowSink) add(t int, h uint64, width int) value.Tuple {
	f := k.free[t]
	if len(f) < width {
		n := min(max(8, 2*len(k.parts[t])), sinkBlockRows)
		f = make([]value.Value, n*width)
	}
	row := value.Tuple(f[:width:width])
	k.free[t] = f[width:]
	k.parts[t] = append(k.parts[t], row)
	if k.hashes != nil {
		k.hashes[t] = append(k.hashes[t], h)
	}
	return row
}

// LabelSeq is the sequence number value shredding minted label v under; ok is
// false for any value that is not a label it mints.
func LabelSeq(v value.Value) (seq int64, ok bool) {
	l, isLabel := v.(value.Label)
	if !isLabel || len(l.Payload) != 1 {
		return 0, false
	}
	seq, ok = l.Payload[0].(int64)
	return seq, ok
}

// LabelRows returns where the rows labelled lbl lie in rows — a partition of a
// dictionary ShredInputFrom placed, or one shredding's run of such a
// partition — as the range lo to hi, empty when no row carries it. Value
// shredding adds each inner bag whole and in the order it mints their labels,
// so those rows are sorted on their labels' sequence numbers and one binary
// search finds a bag.
func LabelRows(rows []value.Tuple, lbl value.Value) (lo, hi int) {
	seq, ok := LabelSeq(lbl)
	if !ok {
		return 0, 0
	}
	lo = sort.Search(len(rows), func(i int) bool {
		s, _ := LabelSeq(rows[i][0])
		return s >= seq
	})
	hi = lo
	for hi < len(rows) && value.EqualKey(rows[hi][0], lbl) {
		hi++
	}
	return lo, hi
}
