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

// Input is one named nested input bound for evaluation: the bag, its declared
// type, and what evaluation derives from them — the engine rows of each route
// (the top-level rows on standard routes, the value-shredded components on
// shredded ones) and the secondary indexes of its top-level scalar columns.
// Each is computed on first use, once, and shared by every run and goroutine
// binding the Input, so the bag must not be mutated once bound. Value
// shredding mints labels from the input's name, so an Input serves one
// variable name: a catalog generation owns one per name it is queried under.
type Input struct {
	Name string
	Bag  value.Bag
	Type nrc.Type

	routes [2]conversion // standard, shredded

	mu sync.Mutex
	// idx is replaced, never edited, when a planned index is built: a run
	// keeps the set it bound.
	idx   *index.Set
	tried map[string]bool // columns a planned index was built (or refused) for
}

type conversion struct {
	once sync.Once
	rows map[string][]dataflow.Row
	err  error
}

// NewInput binds a bag under name with its declared type; idx (nil: none)
// holds indexes already built over the bag, which the Input never modifies.
func NewInput(name string, b value.Bag, t nrc.Type, idx *index.Set) *Input {
	return &Input{Name: name, Bag: b, Type: t, idx: idx}
}

// Inputs are the inputs of a run by variable name.
type Inputs map[string]*Input

// NewInputs binds nested values under the types env declares for them.
func NewInputs(bags map[string]value.Bag, env nrc.Env) Inputs {
	ins := make(Inputs, len(bags))
	for name, b := range bags {
		ins[name] = NewInput(name, b, env[name], nil)
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
// shredded ones. The rows are never mutated by the engine.
func (in *Input) Rows(shredded bool) (map[string][]dataflow.Row, error) {
	c := &in.routes[0]
	if shredded {
		c = &in.routes[1]
	}
	c.once.Do(func() { c.rows, c.err = in.convert(shredded) })
	return c.rows, c.err
}

func (in *Input) convert(shredded bool) (rows map[string][]dataflow.Row, err error) {
	defer recoverTo(&err, "input preparation")
	if !shredded {
		return map[string][]dataflow.Row{in.Name: rowsOf(in.Bag)}, nil
	}
	bt, ok := in.Type.(nrc.BagType)
	if !ok {
		return nil, fmt.Errorf("input %s is not a bag", in.Name)
	}
	si, err := shred.ShredInput(in.Name, in.Bag, bt)
	if err != nil {
		return nil, err
	}
	rows = map[string][]dataflow.Row{}
	for comp, ts := range si.Rows {
		rows[comp] = tuplesToRows(ts)
	}
	return rows, nil
}

// indexes returns the input's index set after building, once each, the
// indexes te flags (IndexHash/IndexOrdered) that the set lacks.
func (in *Input) indexes(te plan.TableEstimate) *index.Set {
	in.mu.Lock()
	defer in.mu.Unlock()
	bt, isBag := in.Type.(nrc.BagType)
	for col, ce := range te.Cols {
		if !isBag || !ce.IndexHash && !ce.IndexOrdered || in.tried[col] {
			continue
		}
		have := in.idx.Column(col)
		if have != nil && (!ce.IndexHash || have.HasHash()) && (!ce.IndexOrdered || have.HasOrdered()) {
			continue
		}
		if in.tried == nil {
			in.tried = map[string]bool{}
		}
		in.tried[col] = true
		ci, err := BuildIndex(in.Bag, bt, col, ce.IndexHash, ce.IndexOrdered)
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

// ColumnValues extracts one top-level scalar column of b: vals[i] is the key
// of row i (nil for NULL).
func ColumnValues(b value.Bag, bt nrc.BagType, col string) (vals []value.Value, ok bool) {
	off, _, ok := ScalarColumn(bt, col)
	if !ok {
		return nil, false
	}
	vals = make([]value.Value, len(b))
	for i, e := range b {
		if t, isTup := e.(value.Tuple); isTup {
			vals[i] = t[off]
		} else {
			vals[i] = e
		}
	}
	return vals, true
}

// BuildIndex builds the index of one top-level scalar column of b — the one
// way inputs, and the catalog's datasets, get an index built.
func BuildIndex(b value.Bag, bt nrc.BagType, col string, hash, ordered bool) (*index.ColumnIndex, error) {
	vals, ok := ColumnValues(b, bt, col)
	if !ok {
		return nil, fmt.Errorf("no top-level scalar column %q", col)
	}
	return index.Build(col, hash, ordered, vals)
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
