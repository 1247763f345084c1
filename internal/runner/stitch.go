package runner

import (
	"slices"
	"strings"

	"github.com/trance-go/trance/internal/dataflow"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/value"
)

// Stitching is how a shredded route restores its nested output: from the
// final step's shredded output — the top bag plus one dictionary per bag path,
// keyed by labels (paper Section 4) — the top-k of the top bag is found first,
// and nested bags are built by looking labels up only for the rows returned,
// as Cheney, Lindley and Wadler's query shredding rebuilds nested results at
// the host. The paper's distributed unshred plan (a cascade of Γ⊎ and ⟕) is
// not run: here the output lives in one heap.

// stitcher rebuilds nested values from one run's shredded output. Each
// dictionary gets its label lookup, and each bag it stitches is kept, on first
// use; a reply that never reaches a dictionary never indexes it.
type stitcher struct {
	top level
	// resolved counts the label pairs the comparator stitched to decide an
	// order; depth is the deepest dictionary level a bag was stitched from.
	resolved, depth int
}

// level lays out the rows of one bag: the top bag, or a dictionary whose
// column 0 is the label and whose element fields follow it.
type level struct {
	off    int  // column of the first element field
	width  int  // element fields; 0 for a bag of scalars
	scalar bool // the elements are scalars (plan.Nest's ScalarElem)
	bags   []bagCol
}

// bagCol is a bag-valued element field: the label column standing for it and
// the dictionary the label is looked up in.
type bagCol struct {
	field int   // index among the element fields
	cols  []int // the label's column in the level's rows, as a lookup key
	dict  *dict
}

// dict is one output dictionary and what stitching has derived from it.
type dict struct {
	rows   *dataflow.Dataset
	lvl    level
	depth  int
	lookup *dataflow.Lookup
	bags   []value.Bag // per label group, the stitched bag (nil: not yet)
}

// labelCol keys a dictionary's rows by their label.
var labelCol = []int{0}

// newStitcher lays out o's shredded output after its nested output type.
func newStitcher(o *Output) *stitcher {
	names := map[string]string{}
	for _, d := range o.mat.Dicts {
		names[strings.Join(d.Path, "_")] = d.Name
	}
	var layout func(elem nrc.Type, path string, off, depth int) level
	layout = func(elem nrc.Type, path string, off, depth int) level {
		tt, ok := elem.(nrc.TupleType)
		if !ok {
			return level{off: off, scalar: true}
		}
		lv := level{off: off, width: len(tt.Fields)}
		for i, f := range tt.Fields {
			bt, ok := f.Type.(nrc.BagType)
			if !ok {
				continue
			}
			p := f.Name
			if path != "" {
				p = path + "_" + f.Name
			}
			d := &dict{rows: o.shredded[names[p]], depth: depth + 1}
			d.lvl = layout(bt.Elem, p, 1, depth+1)
			lv.bags = append(lv.bags, bagCol{field: i, cols: []int{off + i}, dict: d})
		}
		return lv
	}
	return &stitcher{top: layout(o.mat.OutType.Elem, "", 0, 0)}
}

// stitchTop is Output.CollectTop on a shredded route: the first limit rows
// (all when limit <= 0) of the top bag in the order of compare, ties ranked by
// the top bag's Collect order, each with its bags stitched. The rows and their
// order are the first limit of the nested value's canonical order (value.
// CompareSeq), up to the element order inside bags, which is the
// dictionaries' Collect order.
func stitchTop(o *Output, limit int) ([]dataflow.Row, int, *stitcher) {
	s := newStitcher(o)
	rows, total := o.d.CollectTopFunc(limit, s.compare)
	if len(s.top.bags) > 0 {
		for i, r := range rows {
			rows[i] = dataflow.Row(s.elem(&s.top, r).(value.Tuple))
		}
	}
	return rows, total, s
}

// compare is value.CompareSeq over two top rows as if their bags were
// stitched: a label column resolves both labels to their bags only when every
// earlier column ties.
func (s *stitcher) compare(a, b dataflow.Row) int {
	bags := s.top.bags
	for i := range min(len(a), len(b)) {
		var c int
		if len(bags) > 0 && bags[0].field == i {
			s.resolved++
			c = value.Compare(s.bag(bags[0], a), s.bag(bags[0], b))
			bags = bags[1:]
		} else {
			c = value.Compare(a[i], b[i])
		}
		if c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}

// elem is the nested element a row of lv stands for.
func (s *stitcher) elem(lv *level, r dataflow.Row) value.Value {
	if lv.scalar {
		return r[lv.off]
	}
	t := value.Tuple(r[lv.off : lv.off+lv.width])
	if len(lv.bags) == 0 {
		return t
	}
	t = slices.Clone(t)
	for _, bc := range lv.bags {
		t[bc.field] = s.bag(bc, r)
	}
	return t
}

// bag is the bag the label in r's bc column stands for: the dictionary's rows
// under it in Collect order, stitched in turn. A NULL label, or one no row
// carries, is the empty bag, as plan.CastNullBag makes it.
func (s *stitcher) bag(bc bagCol, r dataflow.Row) value.Bag {
	d := bc.dict
	if d.lookup == nil {
		d.lookup = d.rows.Lookup(labelCol)
		d.bags = make([]value.Bag, d.lookup.Len())
	}
	id, rows := d.lookup.Find(r, bc.cols)
	if id < 0 {
		return value.Bag{}
	}
	if d.bags[id] == nil {
		b := make(value.Bag, len(rows))
		for i, row := range rows {
			b[i] = s.elem(&d.lvl, row)
		}
		d.bags[id] = b
		s.depth = max(s.depth, d.depth)
	}
	return d.bags[id]
}
