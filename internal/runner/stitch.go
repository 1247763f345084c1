package runner

import (
	"fmt"
	"slices"
	"strings"

	"github.com/trance-go/trance/internal/dataflow"
	"github.com/trance-go/trance/internal/ingest"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/value"
)

// Stitching is how a shredded route restores its nested output: from the
// final step's shredded output — the top bag plus one dictionary per bag path,
// keyed by labels (paper Section 4) — the top-k of the top bag is found first,
// and nested bags are reached by looking labels up only for the rows
// returned, as Cheney, Lindley and Wadler's query shredding rebuilds nested
// results at the host. The paper's distributed unshred plan (a cascade of Γ⊎
// and ⟕) is not run: here the output lives in one heap. A dictionary Execute
// deferred is not even computed whole for a limited read: level by level, the
// labels of the rows returned are demanded of it in one batch. One walk
// reaches the bags (members) and hands their elements to one of two sinks:
// a reply is encoded straight from the dictionary rows (writeTop, Bag), and
// every other read builds nested values (stitchTop, elem, bag).

// stitcher walks one run's shredded output. Each dictionary gets its label
// lookup on first use, and each bag the value-building sink stitches is kept;
// a read that never reaches a dictionary never indexes it.
type stitcher struct {
	top level
	// dicts are the deferred dictionaries the read demands of, limit its
	// row limit.
	dicts []*dict
	limit int
	// resolved counts the label pairs the comparator stitched to decide an
	// order, demandTies those of them read from a deferred dictionary and
	// singles the labels it demanded one at a time; depth is the deepest
	// dictionary level a bag was stitched from, batch the last demand's;
	// finds counts the label lookups in read-whole dictionaries.
	resolved, demandTies, singles, depth, batch, finds int
	err                                                error // the first failure of a deferred statement
	// at is the element the encoding sink is writing.
	at cursor
}

// cursor is a row of a level and what fetch found for it.
type cursor struct {
	lv    *level
	r     dataflow.Row
	found []int
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
	// found holds, per label group fetch went down through, what it found
	// for the group's rows (see fetch); nil where it went down through none.
	found [][]int
	// dem, when set, is the deferred statement the dictionary's rows are
	// demanded of, got what the read demanded of each label, by its hash.
	dem *deferred
	got map[uint64]*demanded
}

// demanded is what a read demanded of a deferred dictionary for one label:
// in which batch, the rows that came back, what fetch found for them a level
// down and, once stitched, their bag; next is another label of the same hash.
type demanded struct {
	lbl   value.Value
	batch int
	rows  []dataflow.Row
	found []int
	bag   value.Bag
	next  *demanded
}

// unfound is a found entry fetch did not look up: bag looks the label up.
const unfound = -2

// foundOf is row i's entries of found, a level of nb bag columns; nil when
// found is empty.
func foundOf(found []int, i, nb int) []int {
	if len(found) == 0 {
		return nil
	}
	return found[i*nb : (i+1)*nb]
}

// entry is d's demand of lbl, or, if there is none and batch is not 0, a new
// one in batch (fresh).
func (d *dict) entry(lbl value.Value, batch int) (g *demanded, fresh bool) {
	h := value.Hash64(lbl)
	for g := d.got[h]; g != nil; g = g.next {
		if value.EqualKey(g.lbl, lbl) {
			return g, false
		}
	}
	if batch == 0 {
		return nil, false
	}
	g = &demanded{lbl: lbl, batch: batch, next: d.got[h]}
	d.got[h] = g
	return g, true
}

// newStitcher lays out o's shredded output after its nested output type; with
// limit > 0 the rows of a deferred dictionary are demanded, otherwise it was
// forced first.
func newStitcher(o *Output, limit int) *stitcher {
	s := &stitcher{limit: limit}
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
			if dem := o.deferred[names[p]]; dem != nil && limit > 0 {
				d.dem, d.got = dem, map[uint64]*demanded{}
				s.dicts = append(s.dicts, d)
			} else if dem != nil {
				d.rows = dem.full // a read of every row forced it first
			}
			d.lvl = layout(bt.Elem, p, 1, depth+1)
			lv.bags = append(lv.bags, bagCol{field: i, cols: []int{off + i}, dict: d})
		}
		return lv
	}
	s.top = layout(o.mat.OutType.Elem, "", 0, 0)
	return s
}

// collect finds the rows a read of limit rows (all when limit <= 0) of o
// returns, before a byte of them is written: the first limit rows of the top
// bag in the order of compare, ties ranked by the top bag's Collect order,
// with every demand their bags make (fetch) — a limited read demands the bags
// of a deferred dictionary, level by level; reading every row forces it
// first. found is what fetch found for the rows, and s, which walks their
// bags, holds the first failure of a deferred statement. The rows and their
// order are the first limit of the nested value's canonical order (value.
// CompareSeq), up to the element order inside bags, which is the
// dictionaries' Collect order.
func collect(o *Output, limit int) (s *stitcher, rows []dataflow.Row, total int, found []int) {
	if limit <= 0 {
		for _, d := range o.deferred {
			if err := d.force(); err != nil {
				return &stitcher{err: err}, nil, 0, nil
			}
		}
	}
	s = newStitcher(o, limit)
	rows, total = o.d.CollectTopFunc(limit, s.compare)
	return s, rows, total, s.fetch(&s.top, rows)
}

// stitchTop is Output.CollectTop on a shredded route: the rows collect finds,
// each with its bags stitched — the walk's value-building sink.
func stitchTop(o *Output, limit int) ([]dataflow.Row, int, *stitcher) {
	s, rows, total, found := collect(o, limit)
	if nb := len(s.top.bags); nb > 0 {
		for i, r := range rows {
			rows[i] = dataflow.Row(s.elem(&s.top, r, foundOf(found, i, nb)).(value.Tuple))
		}
	}
	return rows, total, s
}

// writeTop is Result.WriteJSON on a shredded route whose top rows hold bags:
// it writes the rows collect found, each field straight from the dictionary
// rows the walk reaches — the walk's encoding sink, which builds no stitched
// value.
func (s *stitcher) writeTop(rw *ingest.RowWriter, rows []dataflow.Row, found []int) {
	lv, nb := &s.top, len(s.top.bags)
	for i, r := range rows {
		s.at = cursor{lv, r, foundOf(found, i, nb)}
		rw.Row(r[lv.off:lv.off+lv.width], s)
	}
}

// Bag writes the bag of field col of the element being written, s.at, one
// element at a time (ingest.Bags).
func (s *stitcher) Bag(rw *ingest.RowWriter, col int) {
	at := s.at
	k := slices.IndexFunc(at.lv.bags, func(bc bagCol) bool { return bc.field == col })
	bc := at.lv.bags[k]
	rows, found, _, _ := s.members(bc, at.r, foundAt(at.found, k))
	lv := &bc.dict.lvl
	for i, r := range rows {
		if lv.scalar {
			rw.Value(r[lv.off])
			continue
		}
		s.at = cursor{lv, r, foundOf(found, i, len(lv.bags))}
		rw.Tuple(r[lv.off:lv.off+lv.width], s)
	}
	s.at = at
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
			c = value.Compare(s.bag(bags[0], a, unfound), s.bag(bags[0], b, unfound))
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

// elem is the nested element a row of lv stands for; found, when not nil,
// holds what fetch found for the row (see fetch).
func (s *stitcher) elem(lv *level, r dataflow.Row, found []int) value.Value {
	if lv.scalar {
		return r[lv.off]
	}
	t := value.Tuple(r[lv.off : lv.off+lv.width])
	if len(lv.bags) == 0 {
		return t
	}
	t = slices.Clone(t)
	for k, bc := range lv.bags {
		t[bc.field] = s.bag(bc, r, foundAt(found, k))
	}
	return t
}

// foundAt is a row's found entry for its k-th bag column: unfound when fetch
// found nothing for the row.
func foundAt(found []int, k int) int {
	if found == nil {
		return unfound
	}
	return found[k]
}

// bag is the bag the label in r's bc column stands for (members), stitched in
// turn, and kept: a label's bag is stitched once per read.
func (s *stitcher) bag(bc bagCol, r dataflow.Row, id int) value.Bag {
	rows, found, g, id := s.members(bc, r, id)
	d := bc.dict
	switch {
	case g != nil:
		if g.bag == nil {
			g.bag = s.stitch(d, rows, found)
		}
		return g.bag
	case id < 0:
		return value.Bag{}
	}
	if d.bags == nil {
		d.bags = make([]value.Bag, d.lookup.Len())
	}
	if d.bags[id] == nil {
		d.bags[id] = s.stitch(d, rows, found)
	}
	return d.bags[id]
}

// members is what the label in r's bc column stands for, the one label
// lookup both sinks of the walk read: the dictionary's rows under it in
// Collect order and what fetch found for them a level down (nil: nothing),
// either from a demand of a deferred dictionary, g, or as a group of a
// read-whole one. A NULL label, or one no row carries, stands for the empty
// bag, as plan.CastNullBag makes it: no rows, g nil and group -1. id is the
// label's group in a read-whole dictionary, or -1 for none, as fetch found
// it, or unfound.
func (s *stitcher) members(bc bagCol, r dataflow.Row, id int) (rows []dataflow.Row, found []int, g *demanded, group int) {
	d := bc.dict
	if d.dem != nil {
		lbl := r[bc.cols[0]]
		if !isLabel(lbl) {
			return nil, nil, nil, -1
		}
		if g, _ = d.entry(lbl, 0); g == nil {
			g = s.single(d, lbl)
		}
		if g != nil {
			s.reached(d, g.rows)
			return g.rows, g.found, g, -1
		}
	}
	if id == unfound {
		id = s.find(d, r, bc.cols)
	}
	if id < 0 {
		return nil, nil, nil, -1
	}
	if d.found != nil {
		found = d.found[id]
	}
	rows = d.lookup.Group(id)
	s.reached(d, rows)
	return rows, found, nil, id
}

// reached notes that the walk reached rows of d.
func (s *stitcher) reached(d *dict, rows []dataflow.Row) {
	if len(rows) > 0 {
		s.depth = max(s.depth, d.depth)
	}
}

// find is the group of the label in r's cols in read-whole d, -1 for none.
func (s *stitcher) find(d *dict, r dataflow.Row, cols []int) int {
	s.finds++
	id, _ := s.lookup(d).Find(r, cols)
	return id
}

// lookup is d's label lookup, built on first use.
func (s *stitcher) lookup(d *dict) *dataflow.Lookup {
	if d.lookup == nil {
		d.lookup = d.rows.Lookup(labelKey)
	}
	return d.lookup
}

// stitch is the bag of rows, rows of d under one label, and what fetch found
// for them, or nil.
func (s *stitcher) stitch(d *dict, rows []dataflow.Row, found []int) value.Bag {
	b := make(value.Bag, len(rows))
	for i, row := range rows {
		b[i] = s.elem(&d.lvl, row, foundOf(found, i, len(d.lvl.bags)))
	}
	return b
}

// single demands lbl alone of d, as the comparator does to break a tie, and
// the bags its rows hold a level further down in one batch each. Once the
// ties the read broke this way exceed its limit — each demands up to two
// labels — it forces every deferred dictionary instead, and single returns
// nil: d is read whole.
func (s *stitcher) single(d *dict, lbl value.Value) *demanded {
	if s.singles++; s.singles > 2*s.limit {
		for _, x := range s.dicts {
			s.force(x)
		}
	}
	if d.dem == nil {
		return nil
	}
	s.batch++
	g, _ := d.entry(lbl, s.batch)
	if s.demand(d, []value.Value{lbl}); d.dem == nil {
		return nil
	}
	g.found = s.fetch(&d.lvl, g.rows)
	return g
}

// force forces d and reads it whole from then on: a failed force leaves it
// demanded.
func (s *stitcher) force(d *dict) {
	if d.dem == nil {
		return
	}
	if err := d.dem.force(); err != nil {
		s.fail(err)
		return
	}
	d.rows, d.dem = d.dem.full, nil
}

// fetch demands of each deferred dictionary at or below lv, in one batch per
// dictionary, the labels rows of lv hold that no earlier demand fetched,
// then the labels the rows that came back hold, a level further down. A
// dictionary whose batch would be most of its labels, or of its source's rows
// (demand), is forced instead: a force, reading the source in order, costs
// less. A read-whole dictionary with a demanded one below it has the labels
// of rows looked up here, to reach the rows a level down, and fetch returns
// what it found: per row of rows, per bag column of lv, the label's group (-1:
// none) or unfound, nil when it looked nothing up. Stitching reads it, so each
// row is looked up once.
func (s *stitcher) fetch(lv *level, rows []dataflow.Row) []int {
	if len(rows) == 0 || !lv.demands() {
		return nil
	}
	nb := len(lv.bags)
	var found []int
	for k, bc := range lv.bags {
		d := bc.dict
		if d.dem != nil && 2*len(rows) > d.dem.labelsAtMost() {
			s.force(d)
		}
		if d.dem != nil {
			s.batch++
			var lbls []value.Value
			var fresh []*demanded
			for _, r := range rows {
				if lbl := r[bc.cols[0]]; isLabel(lbl) {
					if g, isNew := d.entry(lbl, s.batch); isNew {
						lbls = append(lbls, lbl)
						fresh = append(fresh, g)
					}
				}
			}
			if s.demand(d, lbls); d.dem != nil {
				var next []dataflow.Row
				for _, g := range fresh {
					next = append(next, g.rows...)
				}
				if below := s.fetch(&d.lvl, next); below != nil {
					for _, g := range fresh {
						n := len(g.rows) * len(d.lvl.bags)
						g.found, below = below[:n], below[n:]
					}
				}
				continue
			}
		}
		// Read whole, or forced just now.
		if !d.lvl.demands() {
			continue
		}
		if found == nil {
			found = make([]int, len(rows)*nb)
			for i := range found {
				found[i] = unfound
			}
		}
		if d.found == nil {
			d.found = make([][]int, s.lookup(d).Len())
		}
		var next []dataflow.Row
		var groups []int
		for i, r := range rows {
			id := s.find(d, r, bc.cols)
			if found[i*nb+k] = id; id >= 0 && d.found[id] == nil {
				d.found[id] = []int{} // going down now
				groups = append(groups, id)
				next = append(next, d.lookup.Group(id)...)
			}
		}
		if below := s.fetch(&d.lvl, next); below != nil {
			for _, id := range groups {
				n := len(d.lookup.Group(id)) * len(d.lvl.bags)
				d.found[id], below = below[:n], below[n:]
			}
		}
	}
	return found
}

// demands reports whether a dictionary at or below lv is demanded.
func (lv *level) demands() bool {
	return slices.ContainsFunc(lv.bags, func(bc bagCol) bool { return bc.dict.dem != nil || bc.dict.lvl.demands() })
}

// isLabel reports whether v is a label: a NULL, or anything else, labels no
// row.
func isLabel(v value.Value) bool {
	_, ok := v.(value.Label)
	return ok
}

// demand runs one demand of d's labels of the batch, lbls, and files the rows
// that came back under them, or forces d when they are most of its source's.
// A row of a label it did not ask for means the statement is not
// label-closed, or the rows selected for it were not those of its labels:
// the read fails.
func (s *stitcher) demand(d *dict, lbls []value.Value) {
	if len(lbls) == 0 {
		return
	}
	rows, most, err := d.dem.demand(lbls)
	if most {
		s.force(d)
		return
	}
	s.fail(err)
	var g *demanded
	for _, r := range rows {
		if g == nil || !value.EqualKey(g.lbl, r[0]) {
			if g, _ = d.entry(r[0], 0); g == nil || g.batch != s.batch {
				s.fail(fmt.Errorf("%s: demanded %d labels, a row of another came back", d.dem.st.Label, len(lbls)))
				g = nil
				continue
			}
		}
		g.rows = append(g.rows, r)
	}
}

// fail keeps err as the read's failure unless one came first.
func (s *stitcher) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}
