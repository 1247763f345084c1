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
		if broadcast := ex.broadcasts(x, in, right); !ex.SkewAware || broadcast || x.MovesNothing() {
			// The standard join, of each component: a skew-unaware run has one,
			// a broadcast leaves every left row where it lies, heavy key or
			// not, and a join of two placed sides moves no row, so a
			// skew-aware run has nothing to split (a cross join broadcasts
			// too).
			out, lefts := in, []*dataflow.Dataset{in.light}
			if in.heavy != nil && !in.heavy.YieldsNothing() {
				lefts = append(lefts, in.heavy)
			}
			joined, err := ex.join(lefts, right, x, jo, ns, broadcast)
			if err != nil {
				return triple{}, err
			}
			for _, d := range joined {
				record(d, nil)
			}
			if out.light = joined[0]; len(joined) > 1 {
				out.heavy = joined[1]
			}
			return out, nil
		}
		// Skew-aware join (paper Figure 6): the light parts join with
		// key-based shuffling; the heavy rows of the left stay in place and
		// the matching right rows are broadcast to them. A NULL key matches no
		// row, so a heavy NULL splits nothing off the right side.
		in = ex.keysFor(in, x.LCols, x.KeepSplit, ns)
		rightLight, rightHeavy := skew.Split(right, x.RCols, in.keys.Matching())
		joined, err := ex.join([]*dataflow.Dataset{in.light}, rightLight, x, jo, ns, ex.broadcasts(x, in, rightLight))
		if err != nil {
			return triple{}, err
		}
		light, _ := record(joined[0], nil)
		// The broadcast side's rows are part of the same join node's output:
		// record them too, so skew-strategy plans carry a complete actual_rows.
		heavy, err := record(in.heavy.BroadcastJoin(ex.nextStage("skewjoin"), rightHeavy, x.LCols, x.RCols, jo, x.Outer))
		return triple{light: light, heavy: heavy, keys: in.keys}, err

	case *plan.Nest:
		// Γ, dedup and ⊎ merge light and heavy and follow the standard
		// implementation (paper Figure 6: an empty heavy component and a null
		// heavy-key set come back).
		return ex.allLight(recordWide(ns)(ex.nest(in.merge(), x, ex.wideStage(ns, "nest"), ns)))

	case *plan.DedupOp:
		var combine *dataflow.Combiner
		if x.Combine {
			combine = combiner(ns, dataflow.KeepFirst, dataflow.KeepFirst)
		}
		return ex.allLight(recordWide(ns)(in.merge().Distinct(ex.wideStage(ns, "dedup"), x.Local != nil, combine)))

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
			in = ex.keysFor(in, cols, x.KeepSplit, ns)
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

// broadcasts reports whether join x of the left input l broadcasts its right
// side r: every cross join does, and no join of two sides placed on its key
// (plan.Place), which moves nothing; a keyed one as the cost model decided at
// plan time, by the same rule over estimates (honored over the measured size:
// the two can disagree when estimates are off, and the differential oracle
// checks both paths stay sound), or, without a Cost, as that rule picks over
// r's measured size — like Spark, inputs under the broadcast limit are
// broadcast automatically — and what each moves: with the left side placed a
// shuffle moves r once, a broadcast once per partition, so it never
// broadcasts; with the right side placed a shuffle moves the left side, so it
// broadcasts only if r on every partition is smaller.
func (ex *Executor) broadcasts(x *plan.Join, l triple, r *dataflow.Dataset) bool {
	switch {
	case len(x.LCols) == 0:
		return true
	case x.MovesNothing():
		return false
	case x.Cost != nil:
		return x.Cost.Method == plan.JoinBroadcast
	case x.Placed[0]:
		return false
	}
	rb := float64(r.SizeBytes())
	if x.Placed[1] && rb*float64(ex.Ctx.Parallelism) >= float64(l.sizeBytes()) {
		return false
	}
	return plan.Broadcasts(rb, ex.Ctx.BroadcastLimit)
}

// join runs x over each of lefts — a triple's components — and r as one
// stage: a broadcast over one table built once, or a shuffle join of each,
// which the executor runs over more than one left only when both sides lie
// placed and nothing moves.
func (ex *Executor) join(lefts []*dataflow.Dataset, r *dataflow.Dataset, x *plan.Join, jo dataflow.JoinOut, ns *plan.NodeStats, broadcast bool) ([]*dataflow.Dataset, error) {
	switch {
	case len(x.LCols) == 0:
		return dataflow.BroadcastJoins(ex.wideStage(ns, "cross"), lefts, r, nil, nil, jo, x.Outer)
	case broadcast:
		return dataflow.BroadcastJoins(ex.wideStage(ns, "bjoin"), lefts, r, x.LCols, x.RCols, jo, x.Outer)
	}
	stage := ex.wideStage(ns, "join")
	out := make([]*dataflow.Dataset, len(lefts))
	for i, l := range lefts {
		var err error
		if out[i], err = l.Join(stage, r, x.LCols, x.RCols, x.Placed, jo, x.Outer); err != nil {
			return nil, err
		}
	}
	return out, nil
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
// lists, cut from the stage's arena.
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
	return in.FlatMap(instrFlatMap(ns, func(a *dataflow.Arena, out []dataflow.Row, r dataflow.Row) []dataflow.Row {
		bag, _ := r[x.BagCol].(value.Bag)
		n := len(bag)
		if n == 0 {
			if !x.Outer {
				return out
			}
			n = 1
		}
		for i := range n {
			nr := a.Row(w)
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
			out = append(out, nr)
		}
		return out
	}))
}

// nest implements Γ⊎ and Γ+ with the NULL-casting semantics of the paper:
// rows whose presence columns contain a NULL are phantoms introduced by outer
// operators; they register their group without contributing. Structural nests
// keep every group (empty bags); explicit nests below the root emit NULL
// marker rows for phantom-only groups; at the root those groups are dropped.
func (ex *Executor) nest(in *dataflow.Dataset, x *plan.Nest, stage string, ns *plan.NodeStats) (*dataflow.Dataset, error) {
	if x.Agg == plan.AggSum {
		return sumNest(in, x, stage, ns)
	}
	inCols := x.In.Columns()
	bagValue := make([]bool, len(x.ValueCols))
	for i, c := range x.ValueCols {
		_, bagValue[i] = inCols[c].Type.(nrc.BagType)
	}
	width := len(x.GroupCols) + len(x.CarryCols)

	present := presence(x.PresenceCols)

	// Slab cells per input row: its slot in the group's bag and, unless
	// elements are bare scalars, its element tuple.
	elemWidth := 0
	if !x.ScalarElem {
		elemWidth = len(x.ValueCols)
	}
	perRow := 1 + elemWidth
	return in.GroupReduce(stage, x.GroupCols, x.Local != nil, nil, func(nrows, ngroups int) dataflow.Reducer {
		// The group sizes are known before the first group is reduced, so a
		// partition's output rows, their bags and the bags' element tuples
		// are cut from one slab instead of allocated one by one.
		slab := make(dataflow.Slab, ngroups*(width+1)+nrows*perRow)
		return func(out, rows []dataflow.Row) []dataflow.Row {
			nr := dataflow.Row(slab.Cut(width + 1))
			for i, c := range x.GroupCols {
				nr[i] = rows[0][c]
			}
			for j, c := range x.CarryCols {
				nr[len(x.GroupCols)+j] = rows[0][c]
			}

			hadReal := false
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
	})
}
