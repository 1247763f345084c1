package runner

import (
	"fmt"
	"maps"
	"sync"

	"github.com/trance-go/trance/internal/dataflow"
	"github.com/trance-go/trance/internal/index"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/plan"
	"github.com/trance-go/trance/internal/shred"
	"github.com/trance-go/trance/internal/value"
)

// Chunk is an immutable run of an input's rows and what evaluation derives
// from it, each computed on first use, once: the engine rows of each route
// under every variable name the chunk is bound as, and the index part of each
// column. An Input is a list of chunks; a catalog dataset generation
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
}

type conversion struct {
	once sync.Once
	rows map[string][]dataflow.Row
	err  error
}

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

// Rows returns the chunk's engine datasets on a route when bound as variable
// name: one under name on standard routes, the value-shredded dictionary
// components on shredded ones.
func (c *Chunk) Rows(name string, shredded bool) (map[string][]dataflow.Row, error) {
	r := entry(&c.mu, &c.conv, convKey{name, shredded})
	r.once.Do(func() { r.rows, r.err = c.convert(name, shredded) })
	return r.rows, r.err
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

func (c *Chunk) convert(name string, shredded bool) (rows map[string][]dataflow.Row, err error) {
	defer recoverTo(&err, "input preparation")
	if !shredded {
		return map[string][]dataflow.Row{name: rowsOf(c.Bag)}, nil
	}
	bt, ok := c.Type.(nrc.BagType)
	if !ok {
		return nil, fmt.Errorf("input %s is not a bag", name)
	}
	si, err := shred.ShredInputFrom(name, c.Bag, bt, c.labelBase)
	if err != nil {
		return nil, err
	}
	rows = map[string][]dataflow.Row{}
	for comp, ts := range si.Rows {
		rows[comp] = tuplesToRows(ts)
	}
	return rows, nil
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
// chunks of its rows, and what evaluation derives from them — the engine rows
// of each route (the top-level rows on standard routes, the value-shredded
// components on shredded ones) and the secondary indexes of its top-level
// scalar columns. Each is computed on first use, once, and shared by every
// run and goroutine binding the Input. Value shredding mints labels from the
// input's name, so an Input serves one variable name: a catalog generation
// owns one per name it is queried under.
type Input struct {
	Name   string
	Type   nrc.Type
	Chunks []*Chunk

	routes [2]conversion // standard, shredded: the chunks' rows concatenated

	mu sync.Mutex
	// idx is replaced, never edited, when a planned index is built: a run
	// keeps the set it bound.
	idx   *index.Set
	tried map[string]bool // columns a planned index was built (or refused) for
}

// NewInput binds the rows of chunks, in order, under name with declared type
// t; idx (nil: none) holds indexes already built over them, which the Input
// never modifies.
func NewInput(name string, t nrc.Type, chunks []*Chunk, idx *index.Set) *Input {
	return &Input{Name: name, Type: t, Chunks: chunks, idx: idx}
}

// Inputs are the inputs of a run by variable name.
type Inputs map[string]*Input

// NewInputs binds nested values, one chunk each, under the types env declares
// for them.
func NewInputs(bags map[string]value.Bag, env nrc.Env) Inputs {
	ins := make(Inputs, len(bags))
	for name, b := range bags {
		ins[name] = NewInput(name, env[name], []*Chunk{NewChunk(b, env[name], 0)}, nil)
	}
	return ins
}

// Bind returns what Execute binds for prog: every input's rows on prog's
// route, and, when a plan of prog scans an index, the inputs' index sets keyed
// like the rows (shredded routes scan the top component, whose rows value
// shredding keeps in order with their scalar columns in place). An index the
// statistics of prog's config flag is built here once per Input if the Input
// lacks it; IndexScan falls back to a full scan when one is missing anyway.
func (ins Inputs) Bind(prog []*Compiled) (map[string][]dataflow.Row, map[string]*index.Set, error) {
	cq := prog[0]
	shredded := cq.Strategy.IsShredded()
	planned := false
	for _, c := range prog {
		planned = planned || c.Idx.Planned > 0
	}
	rows := map[string][]dataflow.Row{}
	var idxs map[string]*index.Set
	for name, in := range ins {
		comps, err := in.Rows(shredded)
		if err != nil {
			return nil, nil, err
		}
		maps.Copy(rows, comps)
		if !planned {
			continue
		}
		if set := in.indexes(cq.Cfg.Stats[name]); set.Len() > 0 {
			if idxs == nil {
				idxs = map[string]*index.Set{}
			}
			if shredded {
				name = shred.MatName(name, nil)
			}
			idxs[name] = set
		}
	}
	return rows, idxs, nil
}

// Rows returns the input's engine datasets on a route: one under the input's
// own name on standard routes, the value-shredded dictionary components on
// shredded ones — each chunk's, concatenated in chunk order, so top rows keep
// the positions the indexes hold (a one-chunk input binds its chunk's rows
// as they are). The rows are never mutated by the engine.
func (in *Input) Rows(shredded bool) (map[string][]dataflow.Row, error) {
	c := &in.routes[0]
	if shredded {
		c = &in.routes[1]
	}
	c.once.Do(func() { c.rows, c.err = in.concat(shredded) })
	return c.rows, c.err
}

func (in *Input) concat(shredded bool) (map[string][]dataflow.Row, error) {
	if len(in.Chunks) == 1 {
		return in.Chunks[0].Rows(in.Name, shredded)
	}
	parts := make([]map[string][]dataflow.Row, len(in.Chunks))
	sizes := map[string]int{}
	for i, ch := range in.Chunks {
		comps, err := ch.Rows(in.Name, shredded)
		if err != nil {
			return nil, err
		}
		parts[i] = comps
		for comp, rs := range comps {
			sizes[comp] += len(rs)
		}
	}
	rows := make(map[string][]dataflow.Row, len(sizes))
	for comp, n := range sizes {
		all := make([]dataflow.Row, 0, n)
		for _, comps := range parts {
			all = append(all, comps[comp]...)
		}
		rows[comp] = all
	}
	return rows, nil
}

// indexes returns the input's index set after building, once each, the
// indexes te flags (Indexed) that the set lacks.
func (in *Input) indexes(te plan.TableEstimate) *index.Set {
	in.mu.Lock()
	defer in.mu.Unlock()
	_, isBag := in.Type.(nrc.BagType)
	for col, ce := range te.Cols {
		if !isBag || !ce.Indexed || in.tried[col] || in.idx.Column(col) != nil {
			continue
		}
		if in.tried == nil {
			in.tried = map[string]bool{}
		}
		in.tried[col] = true
		ci, err := IndexChunks(in.Chunks, col)
		if err != nil {
			continue
		}
		in.idx = in.idx.Clone()
		in.idx.Put(ci)
	}
	return in.idx
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
