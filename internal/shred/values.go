package shred

import (
	"fmt"
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
	// Rows holds the top rows, in input order, and, unless the input was
	// shredded placed, every dictionary's rows.
	Rows map[string][]value.Tuple
	// Placed holds the components of an input shredded placed: every
	// dictionary, its rows hash-placed on their label (column 0), and the top
	// rows, when they carry labels, hash-placed on their first label column;
	// each partition in input order. Labels are minted root-aligned (see
	// ShredInputFrom), so every label column of a row hashes to the partition
	// it lies in.
	Placed map[string]*dataflow.Placed
	// Labels is how many labels the shredding minted, and Last the sequence
	// number (LabelSeq) of the last one: every label it put in a row has a
	// sequence number from labelBase+1 to Last. Shredded placed, the numbers
	// skip those whose label lands elsewhere, so Last-labelBase may exceed
	// Labels.
	Labels, Last int64
}

// ShredInput value-shreds a nested bag: every inner bag instance is replaced
// by a fresh label and its elements land in the dictionary of its path. This
// is the value shredding function of paper Section 4.
func ShredInput(name string, b value.Bag, t nrc.BagType) (*ShreddedInput, error) {
	return ShredInputFrom(name, b, t, 0, 0)
}

// ShredInputFrom is ShredInput numbering its labels from labelBase+1 rather
// than 1 and, with parts > 0, placing every component over parts partitions
// as it goes. The labels are then root-aligned: a top row — a root — gets a
// partition drawn from the next sequence number, and every label of its
// subtree, its own first, takes the next sequence number whose label hashes
// to that partition. So one nested value's top row and dictionary rows share
// a partition, and a row lands in the partition each of its labels hashes to,
// after the rows that landed there before it — where an exchange on any label
// column over the flat component would put it. The draw is a mix of the
// sequence number rather than the hash of the root's first label: FNV's low
// bits follow the low bits of the sequence number, so after a subtree landed
// on a partition its label hash would pick the next root's from a short
// cycle, and the roots would crowd a few partitions.
// Labels are opaque keys that only have to be distinct within an input
// (Cheney, Lindley and Wadler: any injective index will do), so runs of one
// input's rows shredded from disjoint label ranges concatenate, component by
// component (and partition by partition), into a shredding of the whole input.
func ShredInputFrom(name string, b value.Bag, t nrc.BagType, labelBase int64, parts int) (*ShreddedInput, error) {
	_, dicts, err := ShredType(t)
	if err != nil {
		return nil, err
	}
	s := &shredder{input: name, parts: uint64(parts), label: labelBase, top: make([]value.Tuple, 0, len(b)), sinks: map[string]*rowSink{}}
	sh := s.shapeOf(t.Elem, nil)
	top := newRowSink(0)
	if sh.first >= 0 {
		top = newRowSink(parts)
	}
	if err := s.shredBag(b, sh, nil, 0, top); err != nil {
		return nil, err
	}
	topName := MatName(name, nil)
	si := &ShreddedInput{Name: name, Rows: map[string][]value.Tuple{topName: s.top}, Labels: s.minted, Last: s.label}
	if parts > 0 {
		si.Placed = map[string]*dataflow.Placed{}
		if sh.first >= 0 {
			si.Placed[topName] = &dataflow.Placed{Cols: []int{sh.first}, Parts: top.parts, Hashes: top.hashes}
		}
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

// shredder is one value shredding of an input: the last sequence number
// used, how many labels it minted, the top rows in input order and the rows
// of each dictionary, placed over parts partitions (0: not placed) — placed,
// root is the partition of the top row being shredded.
type shredder struct {
	input  string
	parts  uint64
	label  int64
	minted int64
	root   uint64
	top    []value.Tuple
	sinks  map[string]*rowSink
}

// shape is what value shredding needs of a bag's element type, worked out
// once per input rather than once per element: whether the elements are
// tuples and how wide, for each bag-valued field the site its labels carry,
// the dictionary its elements go to and their own shape, and the first such
// field (-1: none).
type shape struct {
	tuple bool
	width int
	bags  []*dictField // by field position; nil for a field that is not a bag
	first int
}

type dictField struct {
	site int32
	dict *rowSink
	elem *shape
}

func (s *shredder) shapeOf(elem nrc.Type, path []string) *shape {
	tt, ok := elem.(nrc.TupleType)
	if !ok {
		return &shape{width: 1, first: -1}
	}
	sh := &shape{tuple: true, width: len(tt.Fields), bags: make([]*dictField, len(tt.Fields)), first: -1}
	for i, f := range tt.Fields {
		if bt, isBag := f.Type.(nrc.BagType); isBag {
			sub := append(append([]string{}, path...), f.Name)
			k := newRowSink(int(s.parts))
			s.sinks[MatName(s.input, sub)] = k
			sh.bags[i] = &dictField{site: inputSite(s.input, sub), dict: k, elem: s.shapeOf(bt.Elem, sub)}
			if sh.first < 0 {
				sh.first = i
			}
		}
	}
	return sh
}

// shredBag adds a row per element of b to out — led by lead, the label of the
// bag the elements came from, hashing to lh, on a dictionary (lead nil: the
// top rows) — with a fresh label in place of each inner bag, whose elements
// it adds to that bag's dictionary in turn. Every row of one inner bag shares
// one label value, and so one partition. An element of a bag of tuples that
// is not a tuple — JSON's null among objects — has no row to stand for it,
// and is an error.
func (s *shredder) shredBag(b value.Bag, sh *shape, lead value.Value, lh uint64, out *rowSink) error {
	off := 0
	if lead != nil {
		off = 1
	}
	for _, e := range b {
		src, ok := e.(value.Tuple)
		if sh.tuple && !ok {
			return fmt.Errorf("input %s: a bag of tuples holds %s, which has no shredded form", s.input, value.Format(e))
		}
		h := lh
		if lead == nil && out.hashes != nil {
			// A placed top row is a root: it lies where its first label
			// hashes to, in a partition drawn from the next sequence number.
			s.root = mix64(uint64(s.label+1)) % s.parts
			_, h = s.next(sh.bags[sh.first].site)
		}
		row := out.add(int(h%max(s.parts, 1)), h, off+sh.width)
		if lead == nil {
			s.top = append(s.top, row)
		} else {
			row[0] = lead
		}
		if !sh.tuple {
			row[off] = e
			continue
		}
		for i := range sh.width {
			d := sh.bags[i]
			if d == nil {
				row[off+i] = src[i]
				continue
			}
			lbl, h := s.mint(d.site)
			row[off+i] = lbl
			inner, _ := src[i].(value.Bag) // a NULL bag labels no row: the empty bag
			if err := s.shredBag(inner, d.elem, lbl, h, d.dict); err != nil {
				return err
			}
		}
	}
	return nil
}

// mint returns a fresh label of site and, placed, its hash.
func (s *shredder) mint(site int32) (value.Value, uint64) {
	seq, h := s.next(site)
	s.label = seq
	s.minted++
	return value.Label{Site: site, Payload: value.Tuple{seq}}, h
}

// next is the sequence number the next label of site takes and, placed, its
// hash: the next one, or placed, the next one whose label hashes to the
// root's partition.
func (s *shredder) next(site int32) (seq int64, h uint64) {
	seq = s.label + 1
	if s.parts > 0 {
		for h = value.HashSeqLabel(site, seq); h%s.parts != s.root; h = value.HashSeqLabel(site, seq) {
			seq++
		}
	}
	return seq, h
}

// rowSink collects one component's rows: over one partition (a component not
// placed), or over the partitions its rows' labels hash to (hashes). Each partition cuts its rows from blocks of its own, so a scan of
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

// mix64 is MurmurHash3's 64-bit finalizer: every input bit moves every output
// bit.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ x>>33
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
