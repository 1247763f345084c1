package exec

import (
	"fmt"

	"github.com/trance-go/trance/internal/dataflow"
	"github.com/trance-go/trance/internal/plan"
	"github.com/trance-go/trance/internal/skew"
)

// triple is a skew-triple (paper Section 5): a light component whose keys may
// be repartitioned normally, a heavy component whose keys must stay
// distributed, and the set of heavy keys over keyCols. keys == nil means the
// heavy-key set is unknown (the components are merged and re-sampled when an
// operator needs it).
type triple struct {
	light, heavy *dataflow.Dataset
	keys         skew.KeySet
	keyCols      []int
}

func (t triple) merge() *dataflow.Dataset {
	if t.heavy == nil || t.heavy.Count() == 0 {
		return t.light
	}
	return t.light.Union(t.heavy)
}

func (t triple) mapBoth(fn func(*dataflow.Dataset) *dataflow.Dataset) triple {
	out := triple{light: fn(t.light), keys: t.keys, keyCols: t.keyCols}
	if t.heavy != nil && t.heavy.Count() > 0 {
		out.heavy = fn(t.heavy)
	} else {
		out.heavy = t.light.Context().Empty()
	}
	return out
}

// keysFor returns the heavy keys of the triple over cols, recomputing them by
// sampling when unknown or associated with different columns.
func (ex *Executor) keysFor(t triple, cols []int) (triple, skew.KeySet) {
	if t.keys != nil && intsEqual(t.keyCols, cols) {
		return t, t.keys
	}
	merged := t.merge()
	det := skew.NewDetector()
	hk := det.HeavyKeys(merged, cols)
	light, heavy := skew.Split(merged, cols, hk)
	return triple{light: light, heavy: heavy, keys: hk, keyCols: cols}, hk
}

// runSkew evaluates a plan with the skew-aware operator implementations of
// paper Figure 6.
func (ex *Executor) runSkew(op plan.Op) (triple, error) {
	switch x := op.(type) {
	case *plan.Scan, *plan.Values, *plan.IndexScan:
		d, err := ex.run(op)
		if err != nil {
			return triple{}, err
		}
		return triple{light: d, heavy: ex.Ctx.Empty()}, nil

	case *plan.Select:
		in, err := ex.runSkew(x.In)
		if err != nil {
			return triple{}, err
		}
		return in.mapBoth(func(d *dataflow.Dataset) *dataflow.Dataset { return ex.applySelect(d, x) }), nil

	case *plan.Extend:
		in, err := ex.runSkew(x.In)
		if err != nil {
			return triple{}, err
		}
		return in.mapBoth(func(d *dataflow.Dataset) *dataflow.Dataset { return ex.applyExtend(d, x) }), nil

	case *plan.Project:
		in, err := ex.runSkew(x.In)
		if err != nil {
			return triple{}, err
		}
		out := in.mapBoth(func(d *dataflow.Dataset) *dataflow.Dataset { return ex.applyProject(d, x) })
		out.keys, out.keyCols = nil, nil // projection changes the layout
		return out, nil

	case *plan.AddIndex:
		in, err := ex.runSkew(x.In)
		if err != nil {
			return triple{}, err
		}
		return in.mapBoth(func(d *dataflow.Dataset) *dataflow.Dataset { return d.AddUniqueID() }), nil

	case *plan.Unnest:
		in, err := ex.runSkew(x.In)
		if err != nil {
			return triple{}, err
		}
		ns := ex.node(x)
		out := in.mapBoth(func(d *dataflow.Dataset) *dataflow.Dataset { return applyUnnest(d, x, ns) })
		if err := out.light.CheckMemory(ex.nextStage("unnest")); err != nil {
			return triple{}, err
		}
		if err := out.heavy.CheckMemory(ex.nextStage("unnest/heavy")); err != nil {
			return triple{}, err
		}
		return out, nil

	case *plan.Join:
		return ex.skewJoin(x)

	case *plan.Nest:
		// Nest merges light and heavy and follows the standard
		// implementation (paper Figure 6: Γ returns an empty heavy
		// component and a null heavy-key set).
		in, err := ex.runSkew(x.In)
		if err != nil {
			return triple{}, err
		}
		d, err := ex.recordWide(x)(ex.nest(in.merge(), x))
		if err != nil {
			return triple{}, err
		}
		return triple{light: d, heavy: ex.Ctx.Empty()}, nil

	case *plan.DedupOp:
		in, err := ex.runSkew(x.In)
		if err != nil {
			return triple{}, err
		}
		stage := ex.nextStage("dedup")
		if ns := ex.node(x); ns != nil {
			ns.Stage = stage
		}
		d, err := ex.recordWide(x)(in.merge().Distinct(stage))
		if err != nil {
			return triple{}, err
		}
		return triple{light: d, heavy: ex.Ctx.Empty()}, nil

	case *plan.UnionAll:
		l, err := ex.runSkew(x.L)
		if err != nil {
			return triple{}, err
		}
		r, err := ex.runSkew(x.R)
		if err != nil {
			return triple{}, err
		}
		u := l.merge().Union(r.merge())
		if _, err := ex.recordWide(x)(u, u.Err()); err != nil {
			return triple{}, err
		}
		return triple{light: u, heavy: ex.Ctx.Empty()}, nil

	case *plan.BagToDict:
		// Skew-aware BagToDict (paper Figure 6): repartition only the light
		// labels; heavy labels stay where they are.
		in, err := ex.runSkew(x.In)
		if err != nil {
			return triple{}, err
		}
		cols := []int{x.LabelCol}
		t, _ := ex.keysFor(in, cols)
		stage := ex.nextStage("bagToDict")
		if ns := ex.node(x); ns != nil {
			ns.Stage = stage
		}
		light, err := t.light.RepartitionBy(stage, cols)
		if err != nil {
			return triple{}, err
		}
		// The operator's output is the union of both components: record the
		// heavy rows too, so actual_rows matches what flows downstream.
		if ns := ex.node(x); ns != nil {
			ns.RowsOut.Add(light.Count() + t.heavy.Count())
		}
		return triple{light: light, heavy: t.heavy, keys: t.keys, keyCols: cols}, nil
	}
	return triple{}, fmt.Errorf("exec: unknown operator %T (skew)", op)
}

// skewJoin implements the skew-aware join of paper Figure 6: the light parts
// join with key-based shuffling; the heavy rows of the left stay in place and
// the matching right rows are broadcast to them.
func (ex *Executor) skewJoin(x *plan.Join) (triple, error) {
	lt, err := ex.runSkew(x.L)
	if err != nil {
		return triple{}, err
	}
	rt, err := ex.runSkew(x.R)
	if err != nil {
		return triple{}, err
	}
	right := rt.merge()
	rw := len(x.R.Columns())

	if len(x.LCols) == 0 {
		// Cross join: broadcast right to both components.
		out := lt.mapBoth(func(d *dataflow.Dataset) *dataflow.Dataset {
			stage := ex.nextStage("cross")
			if ns := ex.node(x); ns != nil {
				ns.Stage = stage
			}
			j, jerr := ex.recordWide(x)(d.BroadcastJoin(stage, right, nil, nil, rw, x.Outer))
			if jerr != nil {
				err = jerr
			}
			return j
		})
		return out, err
	}

	lt, hk := ex.keysFor(lt, x.LCols)

	rightLight, rightHeavy := skew.Split(right, x.RCols, hk)

	light, err := ex.recordWide(x)(ex.join(lt.light, rightLight, x))
	if err != nil {
		return triple{}, err
	}
	// The broadcast side's rows are part of the same join node's output:
	// record them too, so skew-strategy plans carry a complete actual_rows.
	heavy, err := ex.recordWide(x)(lt.heavy.BroadcastJoin(ex.nextStage("skewjoin"), rightHeavy, x.LCols, x.RCols, rw, x.Outer))
	if err != nil {
		return triple{}, err
	}
	return triple{light: light, heavy: heavy, keys: hk, keyCols: x.LCols}, nil
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
