package exec

import (
	"github.com/trance-go/trance/internal/dataflow"
	"github.com/trance-go/trance/internal/plan"
	"github.com/trance-go/trance/internal/skew"
)

// triple is a skew-triple (paper Section 5): a light component whose keys may
// be repartitioned normally, a heavy component whose keys must stay
// distributed, and the set of heavy keys the two were split on (nil: none
// was made). heavy == nil is a skew-unaware run, which never looks for heavy
// keys: the triple is its light dataset.
type triple struct {
	light, heavy *dataflow.Dataset
	keys         skew.KeySet
}

// heavyIDBit marks the unique IDs AddIndex hands the heavy component; it sits
// above the partition and sequence fields of dataflow.AddUniqueID.
const heavyIDBit = int64(1) << 62

// allLight is the triple of a dataset (and the error it came with) that has
// no heavy rows. A skew-aware run carries an empty heavy component instead of
// none, so its unnest/heavy and skewjoin stages run, and are numbered, whether
// or not a key turned out heavy.
func (ex *Executor) allLight(d *dataflow.Dataset, err error) (triple, error) {
	if err != nil {
		return triple{}, err
	}
	if ex.SkewAware {
		return triple{light: d, heavy: ex.Ctx.Empty()}, nil
	}
	return triple{light: d}, nil
}

// merge is the dataset of both components, for the operators that follow
// their standard implementation: their zero-copy concatenation (Union), which
// is the light component itself when the heavy one holds nothing.
func (t triple) merge() *dataflow.Dataset {
	if t.heavy == nil {
		return t.light
	}
	return t.light.Union(t.heavy)
}

// sizeBytes is the size of both components, each materialized in place.
func (t triple) sizeBytes() int64 {
	n := t.light.SizeBytes()
	if t.heavy != nil {
		n += t.heavy.SizeBytes()
	}
	return n
}

// mapBoth applies a narrow operator to both components; nothing runs until a
// wide operator consumes them.
func (t triple) mapBoth(fn func(*dataflow.Dataset) *dataflow.Dataset) triple {
	out := triple{light: fn(t.light), keys: t.keys}
	if t.heavy != nil {
		out.heavy = fn(t.heavy)
	}
	return out
}

// keysFor returns the triple split on its heavy keys over cols: t itself where
// the plan keeps its split (plan.Place knows the heavy keys lie over cols),
// otherwise found by sampling the merged components. ns, when non-nil, gets
// what the split holds and where its keys came from (EXPLAIN ANALYZE heavy=).
func (ex *Executor) keysFor(t triple, cols []int, keep bool, ns *plan.NodeStats) triple {
	kept := keep && t.keys != nil
	if !kept {
		merged := t.merge()
		hk := skew.NewDetector().HeavyKeys(merged, cols)
		light, heavy := skew.Split(merged, cols, hk)
		t = triple{light: light, heavy: heavy, keys: hk}
	}
	if ns != nil {
		ns.Heavy = &plan.HeavySplit{Keys: len(t.keys), Rows: t.heavy.Count(), Kept: kept}
	}
	return t
}
