// Package exec binds algebraic plans to the dataflow engine: every plan
// operator becomes a bulk operation over distributed Datasets, implementing
// the code-generation stage of the paper (Section 3) with the NULL-casting Γ
// semantics, and skipping exactly the exchanges plan.Place decided the rows
// need none of. Narrow plan operators (Select, Extend, Project) map to the
// engine's fused lazy operators, so chains of them execute as one pipelined
// pass per partition, consumed by wide operators (Join, Nest, Dedup,
// BagToDict) at shuffle boundaries.
// Unnest also maps to a fused FlatMap but is materialized immediately by the
// CheckMemory call that models in-place flattening pressure, so fusion
// always terminates there. One interpreter (run) evaluates every operator
// over the skew-triples of Section 5 (skew.go); a skew-unaware run is the
// case of no heavy component.
package exec

import (
	"fmt"
	"runtime/debug"
	"time"

	"github.com/trance-go/trance/internal/dataflow"
	"github.com/trance-go/trance/internal/index"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/plan"
	"github.com/trance-go/trance/internal/skew"
	"github.com/trance-go/trance/internal/value"
)

// Executor runs plans against named inputs on a dataflow context.
type Executor struct {
	Ctx    *dataflow.Context
	Inputs map[string]*dataflow.Dataset
	// Indexes holds the secondary-index sets of bound inputs, keyed like
	// Inputs. IndexScan nodes resolve their spans here; a missing or
	// incompatible entry degrades to a full scan plus the span predicate.
	Indexes map[string]*index.Set
	// SkewAware enables the skew-resilient operator implementations of
	// paper Section 5 for joins and BagToDict.
	SkewAware bool
	// Analysis, when non-nil, collects per-operator runtime statistics
	// (EXPLAIN ANALYZE): narrow operators wrap their fused closures with row
	// and wall counters, wide operators record their dataflow stage name and
	// output cardinality. Nil keeps the execution path untouched.
	Analysis *plan.Analysis

	// raw retains the row slices of BindRows inputs: index positions address
	// rows by offset, so IndexScan gathers from the original slice.
	raw   map[string][]dataflow.Row
	stage int
}

// New creates an executor over the given context.
func New(ctx *dataflow.Context) *Executor {
	return &Executor{Ctx: ctx, Inputs: map[string]*dataflow.Dataset{}, raw: map[string][]dataflow.Row{}}
}

// Bind registers a named input dataset. The dataset is forced first: a named
// input may be scanned by several downstream plans, and materializing once
// here keeps each of them from re-running the name's pending fused chain.
//
// Every dataset the executor binds or builds has Ctx.Parallelism partitions —
// FromRows, Empty, Split, the joins, Γ, dedup and ⊎ keep or produce that
// count — so a dataset plan.Place calls hash-placed lies where an exchange
// would put it. Bind is where a dataset of another count could enter, and it
// refuses one.
func (ex *Executor) Bind(name string, d *dataflow.Dataset) {
	if n := d.NumPartitions(); n != ex.Ctx.Parallelism {
		panic(fmt.Sprintf("exec: input %q has %d partitions, the context %d", name, n, ex.Ctx.Parallelism))
	}
	ex.Inputs[name] = d.Force()
}

// BindRows registers a named input from raw rows (FromRows: Parallelism
// partitions).
func (ex *Executor) BindRows(name string, rows []dataflow.Row) {
	ex.Inputs[name] = ex.Ctx.FromRows(rows)
	ex.raw[name] = rows
}

func (ex *Executor) nextStage(kind string) string {
	ex.stage++
	return fmt.Sprintf("%s#%d", kind, ex.stage)
}

// wideStage is nextStage for an operator that materializes under a dataflow
// stage of its own, recording the name on the operator's stats slot (nil when
// analyze is off) so its stage wall resolves at render time.
func (ex *Executor) wideStage(ns *plan.NodeStats, kind string) string {
	stage := ex.nextStage(kind)
	if ns != nil {
		ns.Stage = stage
	}
	return stage
}

// Run evaluates a plan and returns the resulting dataset. Driver-side panics
// (malformed plans, type confusion while building operators) are converted
// into errors; panics inside partition tasks are already converted by the
// dataflow layer, so no query can crash the process through this entry
// point.
func (ex *Executor) Run(op plan.Op) (d *dataflow.Dataset, err error) {
	defer func() {
		if r := recover(); r != nil {
			d, err = nil, fmt.Errorf("exec: panic evaluating plan: %v\n%s", r, debug.Stack())
		}
	}()
	t, err := ex.run(op)
	if err != nil {
		return nil, err
	}
	return t.merge(), nil
}

// run is the one plan interpreter. Every operator is defined over
// skew-triples (paper Figure 6); the standard operator is the case of no
// heavy component, which is every triple of a skew-unaware run. Only Join and
// BagToDict treat heavy keys differently from light ones.
func (ex *Executor) run(op plan.Op) (triple, error) {
	// Every operator but the leaves evaluates its (left) input first.
	var in triple
	if ch := op.Children(); len(ch) > 0 {
		var err error
		if in, err = ex.run(ch[0]); err != nil {
			return triple{}, err
		}
	}
	ns := ex.node(op)
	switch x := op.(type) {
	case *plan.Scan:
		d, ok := ex.Inputs[x.Input]
		if !ok {
			return triple{}, fmt.Errorf("exec: unbound input %q", x.Input)
		}
		if ns != nil {
			ns.RowsOut.Add(d.Count()) // bound inputs are materialized; Count is cheap
		}
		return ex.allLight(d, nil)

	case *plan.Values:
		rows := make([]dataflow.Row, len(x.Rows))
		copy(rows, x.Rows)
		if ns != nil {
			ns.RowsOut.Add(int64(len(rows)))
		}
		return ex.allLight(ex.Ctx.FromRows(rows), nil)

	case *plan.IndexScan:
		return ex.allLight(ex.runIndexScan(x))

	case *plan.Select:
		return in.mapBoth(func(d *dataflow.Dataset) *dataflow.Dataset { return ex.applySelect(d, x) }), nil

	case *plan.Extend:
		return in.mapBoth(func(d *dataflow.Dataset) *dataflow.Dataset { return ex.applyExtend(d, x) }), nil

	case *plan.Project:
		return in.mapBoth(func(d *dataflow.Dataset) *dataflow.Dataset { return ex.applyProject(d, x) }), nil

	case *plan.AddIndex:
		// IDs feed label identity across statements, so the two components
		// number their rows apart: the heavy side sets a bit above the
		// partition and sequence fields.
		out := triple{light: in.light.AddUniqueID(0), keys: in.keys}
		if in.heavy != nil {
			out.heavy = in.heavy.AddUniqueID(heavyIDBit)
		}
		if ns != nil {
			out = out.mapBoth(func(d *dataflow.Dataset) *dataflow.Dataset { return d.Map(countRows(ns)) })
		}
		return out, nil

	case *plan.Unnest:
		out := in.mapBoth(func(d *dataflow.Dataset) *dataflow.Dataset { return applyUnnest(d, x, ns) })
		// Flattening materially expands partitions in place: a worker
		// holding a large inner collection must hold its flattened form
		// (paper Section 6: flattening skewed inner collections saturates
		// worker memory).
		if err := out.light.CheckMemory(ex.wideStage(ns, "unnest")); err != nil {
			return triple{}, err
		}
		if out.heavy != nil {
			if err := out.heavy.CheckMemory(ex.nextStage("unnest/heavy")); err != nil {
				return triple{}, err
			}
		}
		return out, nil

	case *plan.Join:
		rt, err := ex.run(x.R)
		if err != nil {
			return triple{}, err
		}
		right, record, jo := rt.merge(), recordWide(ns), joinOut(x)
		if !ex.SkewAware || len(x.LCols) == 0 {
			// No key to be heavy on: the standard join, of each component (a
			// cross join broadcasts the right side to both).
			out := in
			if out.light, err = record(ex.join(in.light, right, x, jo, ns)); err != nil {
				return triple{}, err
			}
			if in.heavy != nil && in.heavy.Count() > 0 {
				out.heavy, err = record(ex.join(in.heavy, right, x, jo, ns))
			}
			return out, err
		}
		// Skew-aware join (paper Figure 6): the light parts join with
		// key-based shuffling; the heavy rows of the left stay in place and
		// the matching right rows are broadcast to them.
		in = ex.keysFor(in, x.LCols, x.KeepSplit)
		rightLight, rightHeavy := skew.Split(right, x.RCols, in.keys)
		light, err := record(ex.join(in.light, rightLight, x, jo, ns))
		if err != nil {
			return triple{}, err
		}
		// The broadcast side's rows are part of the same join node's output:
		// record them too, so skew-strategy plans carry a complete actual_rows.
		heavy, err := record(in.heavy.BroadcastJoin(ex.nextStage("skewjoin"), rightHeavy, x.LCols, x.RCols, jo, x.Outer))
		return triple{light: light, heavy: heavy, keys: in.keys}, err

	case *plan.Nest:
		// Γ, dedup and ⊎ merge light and heavy and follow the standard
		// implementation (paper Figure 6: an empty heavy component and a null
		// heavy-key set come back).
		return ex.allLight(recordWide(ns)(ex.nest(in.merge(), x, ex.wideStage(ns, "nest"), x.Local != nil)))

	case *plan.DedupOp:
		return ex.allLight(recordWide(ns)(in.merge().Distinct(ex.wideStage(ns, "dedup"), x.Local != nil)))

	case *plan.UnionAll:
		rt, err := ex.run(x.R)
		if err != nil {
			return triple{}, err
		}
		u := in.merge().Union(rt.merge())
		return ex.allLight(recordWide(ns)(u, u.Err()))

	case *plan.BagToDict:
		cols := []int{x.LabelCol}
		if ex.SkewAware {
			// Skew-aware BagToDict (paper Figure 6): repartition only the
			// light labels; heavy labels stay where they are.
			in = ex.keysFor(in, cols, x.KeepSplit)
		}
		light, err := recordWide(ns)(in.light.RepartitionBy(ex.wideStage(ns, "bagToDict"), cols, x.Placed))
		if err != nil {
			return triple{}, err
		}
		// The operator's output is the union of both components: record the
		// heavy rows too, so actual_rows matches what flows downstream.
		if ns != nil && in.heavy != nil {
			ns.RowsOut.Add(in.heavy.Count())
		}
		return triple{light: light, heavy: in.heavy, keys: in.keys}, nil
	}
	return triple{}, fmt.Errorf("exec: unknown operator %T", op)
}

// runIndexScan resolves an IndexScan's spans against the input's bound
// secondary index and gathers the matching rows by position. Without a usable
// index (none bound, or a row count mismatching the bound slice) it degrades
// to the full scan plus the node's Fallback predicate — the exact filter the
// spans were derived from — so plans carrying IndexScan nodes are runnable
// against any binding.
func (ex *Executor) runIndexScan(x *plan.IndexScan) (*dataflow.Dataset, error) {
	d, ok := ex.Inputs[x.Input]
	if !ok {
		return nil, fmt.Errorf("exec: unbound input %q", x.Input)
	}
	ns := ex.node(x)
	rows, haveRaw := ex.raw[x.Input]
	if ci := ex.Indexes[x.Input].Column(x.Col); ci != nil && haveRaw && ci.Len() == len(rows) {
		start := time.Now()
		matched := ci.Lookup(x.Spans)
		out := make([]dataflow.Row, len(matched))
		for i, p := range matched {
			out[i] = rows[p]
		}
		index.RecordScan(int64(len(out)))
		if ns != nil {
			ns.WallNS.Add(time.Since(start).Nanoseconds())
			ns.RowsIn.Add(int64(len(rows)))
			ns.RowsOut.Add(int64(len(out)))
			ns.IndexMatched.Add(int64(len(out)))
		}
		return ex.Ctx.FromRows(out), nil
	}
	index.RecordFallback()
	sel := &plan.Select{Pred: x.Fallback}
	if ns != nil {
		ns.IndexFallbacks.Add(1)
		// The fallback filter's work belongs to the IndexScan node the user
		// sees, not to the synthetic Select evaluating it.
		ex.Analysis.Alias(sel, x)
	}
	return ex.applySelect(d, sel), nil
}

// join dispatches between shuffle and broadcast joins; like Spark, inputs
// under the broadcast limit are broadcast automatically.
func (ex *Executor) join(l, r *dataflow.Dataset, x *plan.Join, jo dataflow.JoinOut, ns *plan.NodeStats) (*dataflow.Dataset, error) {
	if len(x.LCols) == 0 {
		// Cross join: broadcast the right side.
		return l.BroadcastJoin(ex.wideStage(ns, "cross"), r, nil, nil, jo, x.Outer)
	}
	var broadcast bool
	if x.Cost != nil {
		// The cost model decided at plan time; honor it over the runtime
		// size heuristic (the two can disagree when estimates are off — the
		// differential oracle checks both paths stay sound).
		broadcast = x.Cost.Method == plan.JoinBroadcast
	} else {
		broadcast = ex.Ctx.BroadcastLimit > 0 && r.SizeBytes() <= ex.Ctx.BroadcastLimit
	}
	if broadcast {
		return l.BroadcastJoin(ex.wideStage(ns, "bjoin"), r, x.LCols, x.RCols, jo, x.Outer)
	}
	return l.Join(ex.wideStage(ns, "join"), r, x.LCols, x.RCols, x.Placed, jo, x.Outer)
}

// joinOut is the row x's probe writes: L ++ R, or x.Outs over it with plain
// columns copied straight from their side.
func joinOut(x *plan.Join) dataflow.JoinOut {
	jo := dataflow.JoinOut{RightWidth: len(x.R.Columns())}
	if x.Outs == nil {
		return jo
	}
	jo.Cols = make([]int, len(x.Outs))
	jo.Eval = make([]func(dataflow.Row) value.Value, len(x.Outs))
	for i, ne := range x.Outs {
		if c, ok := ne.Expr.(*plan.Col); ok {
			jo.Cols[i] = c.Idx
		} else {
			jo.Cols[i], jo.Eval[i] = -1, ne.Expr.Eval
		}
	}
	return jo
}

func (ex *Executor) applySelect(in *dataflow.Dataset, x *plan.Select) *dataflow.Dataset {
	ns := ex.node(x)
	if x.NullifyCols == nil {
		return in.Filter(instrPred(ns, func(r dataflow.Row) bool {
			b, _ := x.Pred.Eval(r).(bool)
			return b
		}))
	}
	return in.Map(instrMap(ns, func(a *dataflow.Arena, r dataflow.Row) dataflow.Row {
		if b, _ := x.Pred.Eval(r).(bool); b {
			return r
		}
		nr := a.Row(len(r))
		copy(nr, r)
		for _, c := range x.NullifyCols {
			nr[c] = nil
		}
		return nr
	}))
}

func (ex *Executor) applyExtend(in *dataflow.Dataset, x *plan.Extend) *dataflow.Dataset {
	ns := ex.node(x)
	return in.Map(instrMap(ns, func(a *dataflow.Arena, r dataflow.Row) dataflow.Row {
		nr := a.Row(len(r) + len(x.Exprs))
		copy(nr, r)
		for i, ne := range x.Exprs {
			nr[len(r)+i] = ne.Expr.Eval(r)
		}
		return nr
	}))
}

func (ex *Executor) applyProject(in *dataflow.Dataset, x *plan.Project) *dataflow.Dataset {
	ns := ex.node(x)
	bagOut := make([]bool, len(x.Outs))
	for i, ne := range x.Outs {
		_, bagOut[i] = ne.Expr.Type().(nrc.BagType)
	}
	return in.Map(instrMap(ns, func(a *dataflow.Arena, r dataflow.Row) dataflow.Row {
		nr := a.Row(len(x.Outs))
		for i, ne := range x.Outs {
			v := ne.Expr.Eval(r)
			if v == nil && x.CastBags && bagOut[i] {
				v = value.Bag{}
			}
			nr[i] = v
		}
		return nr
	}))
}

// applyUnnest writes, per input row, one output row per bag element (one
// NULL-extended row for an empty bag under μ̄) holding only the columns x
// lists, all of them cut from one slab.
func applyUnnest(in *dataflow.Dataset, x *plan.Unnest, ns *plan.NodeStats) *dataflow.Dataset {
	width := len(x.In.Columns())
	// Output cells by source: input columns (the tombstoned bag column is left
	// NULL) and element fields.
	type cell struct{ out, src int }
	var passed, elems []cell
	w := len(x.Columns())
	for o := 0; o < w; o++ {
		switch c := x.Full(o); {
		case c >= width:
			elems = append(elems, cell{o, c - width})
		case c != x.BagCol:
			passed = append(passed, cell{o, c})
		}
	}
	_, tupleElem := x.In.Columns()[x.BagCol].Type.(nrc.BagType).Elem.(nrc.TupleType)
	return in.FlatMap(instrFlatMap(ns, func(r dataflow.Row) []dataflow.Row {
		bag, _ := r[x.BagCol].(value.Bag)
		n := len(bag)
		if n == 0 {
			if !x.Outer {
				return nil
			}
			n = 1
		}
		slab := make(dataflow.Slab, n*w)
		out := make([]dataflow.Row, n)
		for i := range out {
			nr := dataflow.Row(slab.Cut(w))
			for _, c := range passed {
				nr[c.out] = r[c.src]
			}
			switch {
			case i >= len(bag):
				// μ̄ of an empty bag: the element columns stay NULL
			case tupleElem:
				e := bag[i].(value.Tuple)
				for _, c := range elems {
					nr[c.out] = e[c.src]
				}
			default:
				for _, c := range elems {
					nr[c.out] = bag[i]
				}
			}
			out[i] = nr
		}
		return out
	}))
}

// nest implements Γ⊎ and Γ+ with the NULL-casting semantics of the paper:
// rows whose presence columns contain a NULL are phantoms introduced by outer
// operators; they register their group without contributing. Structural nests
// keep every group (empty bags); explicit nests below the root emit NULL
// marker rows for phantom-only groups; at the root those groups are dropped.
func (ex *Executor) nest(in *dataflow.Dataset, x *plan.Nest, stage string, local bool) (*dataflow.Dataset, error) {
	inCols := x.In.Columns()
	bagValue := make([]bool, len(x.ValueCols))
	for i, c := range x.ValueCols {
		_, bagValue[i] = inCols[c].Type.(nrc.BagType)
	}
	width := len(x.GroupCols) + len(x.CarryCols)
	var aggWidth int
	if x.Agg == plan.AggBag {
		aggWidth = 1
	} else {
		aggWidth = len(x.ValueCols)
	}

	present := func(r dataflow.Row) bool {
		for _, c := range x.PresenceCols {
			if r[c] == nil {
				return false
			}
		}
		return true
	}

	// Slab cells per input row: under Γ⊎ its slot in the group's bag and,
	// unless elements are bare scalars, its element tuple.
	elemWidth, perRow := 0, 0
	if x.Agg == plan.AggBag {
		if !x.ScalarElem {
			elemWidth = len(x.ValueCols)
		}
		perRow = 1 + elemWidth
	}
	return in.GroupReduce(stage, x.GroupCols, local, func(nrows, ngroups int) dataflow.Reducer {
		// The group sizes are known before the first group is reduced, so a
		// partition's output rows — and for Γ⊎ its bags and their element
		// tuples — are cut from one slab instead of allocated one by one.
		slab := make(dataflow.Slab, ngroups*(width+aggWidth)+nrows*perRow)
		return func(out, rows []dataflow.Row) []dataflow.Row {
			nr := dataflow.Row(slab.Cut(width + aggWidth))
			for i, c := range x.GroupCols {
				nr[i] = rows[0][c]
			}
			for j, c := range x.CarryCols {
				nr[len(x.GroupCols)+j] = rows[0][c]
			}

			hadReal := false
			if x.Agg == plan.AggBag {
				bag := value.Bag(slab.Cut(len(rows)))[:0]
				for _, r := range rows {
					if !present(r) {
						continue
					}
					hadReal = true
					if x.ScalarElem {
						bag = append(bag, r[x.ValueCols[0]])
						continue
					}
					elem := value.Tuple(slab.Cut(elemWidth))
					for i, c := range x.ValueCols {
						v := r[c]
						if v == nil && bagValue[i] {
							v = value.Bag{}
						}
						elem[i] = v
					}
					bag = append(bag, elem)
				}
				switch {
				case hadReal:
					nr[width] = bag
				case x.Mode == plan.Structural:
					nr[width] = value.Bag{}
				case x.Mode == plan.ExplicitNested:
					nr[width] = nil // marker row
				default: // ExplicitRoot: drop phantom-only group
					return out
				}
				return append(out, nr)
			}

			// AggSum.
			sums := nr[width:]
			for _, r := range rows {
				if !present(r) {
					continue
				}
				hadReal = true
				for i, c := range x.ValueCols {
					v := r[c]
					if v == nil {
						continue // NULL contribution counts as zero
					}
					if sums[i] == nil {
						sums[i] = v
					} else {
						sums[i] = nrc.EvalArith(nrc.Add, sums[i], v)
					}
				}
			}
			if !hadReal {
				if x.Mode == plan.ExplicitRoot {
					return out
				}
				// marker row: sums stay NULL
			} else {
				for i, c := range x.ValueCols {
					if sums[i] == nil {
						sums[i] = nrc.ZeroValue(inCols[c].Type)
					}
				}
			}
			return append(out, nr)
		}
	})
}
