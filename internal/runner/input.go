package runner

import (
	"fmt"
	"maps"
	"sync"

	"github.com/trance-go/trance/internal/dataflow"
	"github.com/trance-go/trance/internal/index"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/shred"
	"github.com/trance-go/trance/internal/value"
)

// Chunk is an immutable run of an input's rows and what evaluation derives
// from it, each computed on first use, once: the engine rows of each route
// under every variable name the chunk is bound as (on shredded routes, per
// partition count the dictionaries are placed over), and the index part of
// each column. An Input is a list of chunks; a catalog dataset generation
// reuses the chunks a mutation left unchanged, and with them everything
// derived from their rows, so a write re-derives only the rows it changed.
type Chunk struct {
	Bag  value.Bag
	Type nrc.Type
	// labelBase is where value shredding numbers the chunk's labels from:
	// chunks of one input must draw from disjoint ranges (see
	// shred.ShredInputFrom).
	labelBase int64

	mu    sync.Mutex // guards the maps; each entry computes under its own once
	conv  map[convKey]*conversion
	parts map[string]*partBuild
}

type convKey struct {
	name     string
	shredded bool
	parts    int // the partition count dictionaries are placed over; 0 on standard routes
}

type conversion struct {
	once sync.Once
	comp Components
	err  error
}

// Components are the engine datasets of an input, or of a run's inputs, on
// one route. Rows are the top-level rows on standard routes and the top
// component on shredded ones, in input order: what the indexes' positions and
// the deferred lookups (rowKeys) address, bound as they are (over contiguous
// ranges, FromRows) unless placed. Placed are the components of shredded
// routes value shredding placed root-aligned — every dictionary, hash-placed
// on its label (column 0) and on every label column it carries, and a top
// component with label columns, on each of them — where plan.Place finds them
// (Compiled.bound), bound as placed datasets.
type Components struct {
	Rows   map[string][]dataflow.Row
	Placed map[string]*PlacedDict
	// keys index the shredded routes' Rows by some of their columns, kept
	// with them (rowKeys).
	keys map[string]*rowKeys
}

// rowKeys indexes a flat input's rows by the hash of some of their columns —
// the payload a deferred statement mints its labels from — per column list,
// each built on first use, once: where a limited read finds the rows of the
// labels it demands.
type rowKeys struct {
	mu sync.Mutex
	by map[string]*rowPositions
}

type rowPositions struct {
	once sync.Once
	at   map[uint64][]int32
}

// positions is where rows holds each hash of its columns cols.
func (k *rowKeys) positions(rows []dataflow.Row, cols []int) map[uint64][]int32 {
	e := entry(&k.mu, &k.by, fmt.Sprint(cols))
	e.once.Do(func() {
		e.at = map[uint64][]int32{}
		for i, r := range rows {
			h := value.HashCols(r, cols)
			e.at[h] = append(e.at[h], int32(i))
		}
	})
	return e.at
}

// PlacedDict is an input component hash-placed over a run's partitions — a
// dictionary on its label, a top component on its label columns — chunk by
// chunk: each chunk's placement, in chunk order, beside the sequence numbers
// of the labels the chunk's shredding minted. Whole
// concatenates the chunks partition by partition, on first use and once —
// placing rows chunk by chunk and concatenating is placing them whole — for a
// run that scans the dictionary; a limited read finds a label's rows in its
// chunk instead (find), so a run that only demands rows never concatenates.
type PlacedDict struct {
	Chunks []DictChunk
	once   sync.Once
	whole  *dataflow.Placed
}

// DictChunk is one chunk's placement of a component, the range of label
// sequence numbers, First to Last, its shredding drew from, and how many
// labels it minted there: root-aligned minting skips the numbers whose label
// lands on another partition.
type DictChunk struct {
	*dataflow.Placed
	First, Last int64
	Labels      int64
}

// Whole is the dictionary placed whole: the chunks' placements concatenated
// (a one-chunk dictionary's, as it is).
func (p *PlacedDict) Whole() *dataflow.Placed {
	p.once.Do(func() {
		if len(p.Chunks) == 1 {
			p.whole = p.Chunks[0].Placed
			return
		}
		p.whole = concatPlaced(p.Chunks)
	})
	return p.whole
}

// find returns the chunk holding the rows labelled lbl and where they lie in
// its partition part: rows lo to hi, empty when no row carries lbl. Within a
// chunk's partition a label's rows are one run, in minting order, so a binary
// search finds them (shred.LabelRows).
func (p *PlacedDict) find(part int, lbl value.Value) (chunk, lo, hi int) {
	seq, ok := shred.LabelSeq(lbl)
	if !ok {
		return 0, 0, 0
	}
	for i, c := range p.Chunks {
		if c.First <= seq && seq <= c.Last {
			lo, hi = shred.LabelRows(c.Parts[part], lbl)
			return i, lo, hi
		}
	}
	return 0, 0, 0
}

// labelKey is the column every dictionary component is placed on: its label.
var labelKey = []int{0}

type partBuild struct {
	once sync.Once
	ci   *index.ColumnIndex
	err  error
}

// NewChunk wraps rows b of type t whose shredding labels start above
// labelBase. The bag must not be mutated once wrapped.
func NewChunk(b value.Bag, t nrc.Type, labelBase int64) *Chunk {
	return &Chunk{Bag: b, Type: t, labelBase: labelBase}
}

// LabelBase is where value shredding numbers the chunk's labels from.
func (c *Chunk) LabelBase() int64 { return c.labelBase }

// Components returns the chunk's engine datasets on a route when bound as
// variable name: its rows under name on standard routes (parts 0); on
// shredded ones the value-shredded components, the top rows in input order
// and every component with labels placed stably over parts partitions.
func (c *Chunk) Components(name string, shredded bool, parts int) (Components, error) {
	r := entry(&c.mu, &c.conv, convKey{name, shredded, parts})
	r.once.Do(func() { r.comp, r.err = c.convert(name, shredded, parts) })
	return r.comp, r.err
}

// entry returns the entry of *m under k, creating it; mu guards *m.
func entry[K comparable, V any](mu *sync.Mutex, m *map[K]*V, k K) *V {
	mu.Lock()
	defer mu.Unlock()
	v, ok := (*m)[k]
	if !ok {
		if *m == nil {
			*m = map[K]*V{}
		}
		v = new(V)
		(*m)[k] = v
	}
	return v
}

func (c *Chunk) convert(name string, shredded bool, parts int) (comp Components, err error) {
	defer recoverTo(&err, "input preparation")
	if !shredded {
		return Components{Rows: map[string][]dataflow.Row{name: rowsOf(c.Bag)}}, nil
	}
	bt, ok := c.Type.(nrc.BagType)
	if !ok {
		return comp, fmt.Errorf("input %s is not a bag", name)
	}
	si, err := shred.ShredInputFrom(name, c.Bag, bt, c.labelBase, max(parts, 1))
	if err != nil {
		return comp, err
	}
	top := shred.MatName(name, nil)
	comp = Components{Rows: map[string][]dataflow.Row{top: tuplesToRows(si.Rows[top])}, Placed: map[string]*PlacedDict{}, keys: map[string]*rowKeys{top: {}}}
	for d, pl := range si.Placed {
		comp.Placed[d] = &PlacedDict{Chunks: []DictChunk{{Placed: pl, First: c.labelBase + 1, Last: si.Last, Labels: si.Labels}}}
	}
	return comp, nil
}

// Index returns the chunk's index part over column col, positions local to
// the chunk.
func (c *Chunk) Index(col string) (*index.ColumnIndex, error) {
	pb := entry(&c.mu, &c.parts, col)
	pb.once.Do(func() {
		bt, ok := c.Type.(nrc.BagType)
		if !ok {
			pb.err = fmt.Errorf("index over a non-bag input")
			return
		}
		pb.ci, pb.err = buildIndex(c.Bag, bt, col)
	})
	return pb.ci, pb.err
}

// IndexChunks returns the index of column col over chunks laid end to end:
// each chunk's part, concatenated.
func IndexChunks(chunks []*Chunk, col string) (*index.ColumnIndex, error) {
	parts := make([]*index.ColumnIndex, len(chunks))
	for i, c := range chunks {
		p, err := c.Index(col)
		if err != nil {
			return nil, err
		}
		parts[i] = p
	}
	return index.Concat(parts...)
}

// Input is one named nested input bound for evaluation: its declared type, the
// chunks of its rows, the secondary indexes built over its top-level scalar
// columns, and its components on each route (Components), derived on first
// use, once, and shared by every run and goroutine binding the Input. Value
// shredding mints labels from the input's name, so an Input serves one
// variable name: a catalog generation owns one per name it is queried under.
type Input struct {
	Name   string
	Type   nrc.Type
	Chunks []*Chunk

	mu     sync.Mutex // guards routes; each entry computes under its own once
	routes map[convKey]*conversion
	idx    *index.Set
}

// NewInput binds the rows of chunks, in order, under name with declared type
// t; idx (nil: none) holds the indexes built over them (IndexChunks), which
// the Input never modifies and a run scans where its plans flag them.
func NewInput(name string, t nrc.Type, chunks []*Chunk, idx *index.Set) *Input {
	return &Input{Name: name, Type: t, Chunks: chunks, idx: idx}
}

// Inputs are the inputs of a run by variable name.
type Inputs map[string]*Input

// NewInputs binds nested values, one chunk each and without indexes, under
// the types env declares for them.
func NewInputs(bags map[string]value.Bag, env nrc.Env) Inputs {
	ins := make(Inputs, len(bags))
	for name, b := range bags {
		ins[name] = NewInput(name, env[name], []*Chunk{NewChunk(b, env[name], 0)}, nil)
	}
	return ins
}

// Bind returns what Execute binds for prog: every input's components on
// prog's route, dictionaries placed over parts partitions (the run context's
// Parallelism: sessions sized apart share a cached program), and, when a plan
// of prog scans an index, the inputs' index sets keyed like the rows
// (shredded routes scan the top component, whose rows value shredding keeps
// in order with their scalar columns in place). IndexScan falls back to a
// full scan when a flagged index is missing.
func (ins Inputs) Bind(prog []*Compiled, parts int) (Components, map[string]*index.Set, error) {
	cq := prog[0]
	shredded := cq.Strategy.IsShredded()
	planned := false
	for _, c := range prog {
		planned = planned || c.Idx.Planned > 0
	}
	all := Components{Rows: map[string][]dataflow.Row{}, Placed: map[string]*PlacedDict{}, keys: map[string]*rowKeys{}}
	var idxs map[string]*index.Set
	for name, in := range ins {
		comp, err := in.Components(shredded, parts)
		if err != nil {
			return Components{}, nil, err
		}
		maps.Copy(all.Rows, comp.Rows)
		maps.Copy(all.Placed, comp.Placed)
		maps.Copy(all.keys, comp.keys)
		if !planned {
			continue
		}
		if in.idx.Len() > 0 {
			if idxs == nil {
				idxs = map[string]*index.Set{}
			}
			if shredded {
				name = shred.MatName(name, nil)
			}
			idxs[name] = in.idx
		}
	}
	return all, idxs, nil
}

// Components returns the input's components on a route (dictionaries placed
// over parts partitions): each chunk's, in chunk order — rows concatenated
// end to end, so top rows keep the positions the indexes hold, and placed
// dictionaries as the list of their chunks, concatenated partition by
// partition when a run first scans them whole (a one-chunk input binds its
// chunk's as they are). The engine never mutates them.
func (in *Input) Components(shredded bool, parts int) (Components, error) {
	if !shredded {
		parts = 0
	}
	c := entry(&in.mu, &in.routes, convKey{in.Name, shredded, parts})
	c.once.Do(func() { c.comp, c.err = in.concat(shredded, parts) })
	return c.comp, c.err
}

func (in *Input) concat(shredded bool, parts int) (Components, error) {
	if len(in.Chunks) == 1 {
		return in.Chunks[0].Components(in.Name, shredded, parts)
	}
	each := make([]Components, len(in.Chunks))
	for i, ch := range in.Chunks {
		comp, err := ch.Components(in.Name, shredded, parts)
		if err != nil {
			return Components{}, err
		}
		each[i] = comp
	}
	all := Components{Rows: map[string][]dataflow.Row{}}
	for name := range each[0].Rows {
		n := 0
		for _, comp := range each {
			n += len(comp.Rows[name])
		}
		rows := make([]dataflow.Row, 0, n)
		for _, comp := range each {
			rows = append(rows, comp.Rows[name]...)
		}
		all.Rows[name] = rows
	}
	if each[0].Placed != nil {
		all.Placed, all.keys = map[string]*PlacedDict{}, map[string]*rowKeys{}
		for name := range each[0].keys {
			all.keys[name] = &rowKeys{}
		}
		for name := range each[0].Placed {
			pd := &PlacedDict{}
			for _, comp := range each {
				pd.Chunks = append(pd.Chunks, comp.Placed[name].Chunks...)
			}
			all.Placed[name] = pd
		}
	}
	return all, nil
}

// ScalarColumn finds a top-level scalar column of a bag type: its tuple offset
// and type ("_value" at offset 0 for a bag of scalars). ok is false when the
// column is absent or not scalar — labels, bags and tuples are never indexed.
func ScalarColumn(bt nrc.BagType, col string) (off int, st nrc.ScalarType, ok bool) {
	if tt, isTup := bt.Elem.(nrc.TupleType); isTup {
		for i, f := range tt.Fields {
			if f.Name == col {
				st, ok = f.Type.(nrc.ScalarType)
				return i, st, ok
			}
		}
		return -1, st, false
	}
	st, ok = bt.Elem.(nrc.ScalarType)
	return 0, st, ok && col == "_value"
}

// buildIndex builds the index of one top-level scalar column of b — the one
// way an index part is built (Chunk.Index).
func buildIndex(b value.Bag, bt nrc.BagType, col string) (*index.ColumnIndex, error) {
	off, _, ok := ScalarColumn(bt, col)
	if !ok {
		return nil, fmt.Errorf("no top-level scalar column %q", col)
	}
	vals := make([]value.Value, len(b))
	for i, e := range b {
		if t, isTup := e.(value.Tuple); isTup {
			vals[i] = t[off]
		} else {
			vals[i] = e
		}
	}
	return index.Build(col, true, true, vals)
}

// concatPlaced lays placements over the same partitions end to end,
// partition by partition in order: placing rows chunk by chunk and
// concatenating is placing them whole.
func concatPlaced(pls []DictChunk) *dataflow.Placed {
	p := len(pls[0].Parts)
	out := &dataflow.Placed{Cols: pls[0].Cols, Parts: make([][]dataflow.Row, p), Hashes: make([][]uint64, p)}
	for t := range out.Parts {
		n := 0
		for _, pl := range pls {
			n += len(pl.Parts[t])
		}
		out.Parts[t] = make([]dataflow.Row, 0, n)
		out.Hashes[t] = make([]uint64, 0, n)
		for _, pl := range pls {
			out.Parts[t] = append(out.Parts[t], pl.Parts[t]...)
			out.Hashes[t] = append(out.Hashes[t], pl.Hashes[t]...)
		}
	}
	return out
}

func rowsOf(b value.Bag) []dataflow.Row {
	out := make([]dataflow.Row, len(b))
	for i, e := range b {
		if t, ok := e.(value.Tuple); ok {
			out[i] = dataflow.Row(t)
		} else {
			out[i] = dataflow.Row{e}
		}
	}
	return out
}

func tuplesToRows(ts []value.Tuple) []dataflow.Row {
	out := make([]dataflow.Row, len(ts))
	for i, t := range ts {
		out[i] = dataflow.Row(t)
	}
	return out
}
