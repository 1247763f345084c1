package runner

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/trance-go/trance/internal/dataflow"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/shred"
	"github.com/trance-go/trance/internal/value"
)

// Stitching is how a shredded route restores its nested output: from the
// final step's shredded output — the top bag plus one dictionary per bag path,
// keyed by labels (paper Section 4) — the top-k of the top bag is found first,
// and nested bags are built by looking labels up only for the rows returned,
// as Cheney, Lindley and Wadler's query shredding rebuilds nested results at
// the host. The paper's distributed unshred plan (a cascade of Γ⊎ and ⟕) is
// not run: here the output lives in one heap. A dictionary Execute deferred
// is not even computed whole for a limited read: each label the read asks for
// has its rows run through the dictionary's chain on demand.

// stitcher rebuilds nested values from one run's shredded output. Each
// dictionary gets its label lookup, and each bag it stitches is kept, on first
// use; a reply that never reaches a dictionary never indexes it.
type stitcher struct {
	top level
	// resolved counts the label pairs the comparator stitched to decide an
	// order, and demandTies those of them read from a deferred dictionary on
	// demand; depth is the deepest dictionary level a bag was stitched from.
	resolved, demandTies, depth int
	err                         error // the first failure of a deferred chain
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
	// dem, when set, is the deferred statement the dictionary's bags are
	// demanded from, byLabel the bags demanded so far.
	dem     *deferred
	byLabel map[labelID]value.Bag
}

// labelID identifies an input label: its site and sequence number.
type labelID struct {
	site int32
	seq  int64
}

// newStitcher lays out o's shredded output after its nested output type; with
// demand set, the bags of a deferred dictionary are demanded label by label.
func newStitcher(o *Output, demand bool) *stitcher {
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
			if dem := o.deferred[names[p]]; dem != nil && demand {
				d.dem, d.byLabel = dem, map[labelID]value.Bag{}
			} else if dem != nil {
				d.rows = dem.full // a read of every row forced it first
			}
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
// dictionaries' Collect order. A limited read demands the bags of a deferred
// dictionary; reading every row forces it first.
func stitchTop(o *Output, limit int) ([]dataflow.Row, int, *stitcher) {
	if limit <= 0 {
		for _, d := range o.deferred {
			if err := d.force(); err != nil {
				return nil, 0, &stitcher{err: err}
			}
		}
	}
	s := newStitcher(o, limit > 0)
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
			if bags[0].dict.dem != nil {
				s.demandTies++
			}
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
	if d.dem != nil {
		return s.demand(d, r[bc.cols[0]])
	}
	if d.lookup == nil {
		d.lookup = d.rows.Lookup(labelKey)
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

// demand is bag on a deferred dictionary: the rows labelled lbl, run through
// its chain from the input's rows of that label alone. A value that is not an
// input label labels no row of it.
func (s *stitcher) demand(d *dict, lbl value.Value) value.Bag {
	seq, ok := shred.LabelSeq(lbl)
	if !ok {
		return value.Bag{}
	}
	id := labelID{lbl.(value.Label).Site, seq}
	if b, ok := d.byLabel[id]; ok {
		return b
	}
	rows, err := d.dem.demand(lbl)
	if err != nil && s.err == nil {
		s.err = err
	}
	b := make(value.Bag, len(rows))
	for i, row := range rows {
		b[i] = s.elem(&d.lvl, row)
	}
	if len(rows) > 0 {
		s.depth = max(s.depth, d.depth)
	}
	d.byLabel[id] = b
	return b
}

// deferred is a dictionary statement Execute left unforced (Stmt.src), built
// over each chunk of the input dictionary pd it reads: fulls, the chains a
// reader of the whole dictionary forces once and concatenates into full, and
// chains, the same chains nothing forces, through which the stitcher runs
// just the rows of the labels it returns, from any number of goroutines at
// once.
type deferred struct {
	fulls, chains []*dataflow.Dataset
	pd            *PlacedDict
	once          sync.Once
	full          *dataflow.Dataset
	err           error
	// took is what force took when it ran after Execute, outside Elapsed
	// (Result.Materialized adds it back).
	took time.Duration
	// labels and rows count what limited reads demanded: labels and the
	// input rows run through the chains for them (EXPLAIN ANALYZE).
	labels, rows atomic.Int64
}

// force materializes the whole dictionary, once: the chunks' chains forced
// and concatenated partition by partition, which is the chain forced over
// the dictionary placed whole.
func (d *deferred) force() error {
	d.once.Do(func() {
		start := time.Now()
		full := d.fulls[0]
		for _, f := range d.fulls[1:] {
			full = full.Union(f)
		}
		d.full = full.Force()
		d.err = d.full.Err()
		d.took = time.Since(start)
	})
	return d.err
}

// demand returns the dictionary's rows labelled lbl, as a force leaves them,
// run through a chain from the input dictionary's rows of lbl: one run of the
// partition lbl hashes to, in the chunk that minted it (PlacedDict.find).
func (d *deferred) demand(lbl value.Value) (rows []dataflow.Row, err error) {
	part := int(value.Hash64(lbl) % uint64(len(d.pd.Chunks[0].Parts)))
	c, lo, hi := d.pd.find(part, lbl)
	d.labels.Add(1)
	d.rows.Add(int64(hi - lo))
	err = d.chains[c].Demand(part, lo, hi, func(r dataflow.Row) { rows = append(rows, r) })
	return rows, err
}
