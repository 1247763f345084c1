// EXPLAIN ANALYZE plumbing for the executor: nil-safe NodeStats lookup and
// the closure wrappers that count rows and wall time inside fused narrow
// stages. When ex.Analysis is nil every helper returns the original closure
// (or nil stats), so the analyze-off execution path is byte-identical to the
// uninstrumented one apart from per-operator nil checks.
package exec

import (
	"time"

	"github.com/trance-go/trance/internal/dataflow"
	"github.com/trance-go/trance/internal/plan"
)

// node returns op's per-run stats slot, nil when analyze is off.
func (ex *Executor) node(op plan.Op) *plan.NodeStats {
	if ex.Analysis == nil {
		return nil
	}
	return ex.Analysis.Node(op)
}

// recordWide returns a pass-through for a wide operator's (dataset, error)
// result that records the materialized output cardinality. Wide operators
// materialize their partitions, so Count after the fact is a cheap sum.
func recordWide(ns *plan.NodeStats) func(*dataflow.Dataset, error) (*dataflow.Dataset, error) {
	return func(d *dataflow.Dataset, err error) (*dataflow.Dataset, error) {
		if err == nil && ns != nil {
			ns.RowsOut.Add(d.Count())
		}
		return d, err
	}
}

// combiner is the Combiner of a Γ+ or dedup whose source partitions fold
// their groups with fold and whose partials merge reduces; with ns non-nil
// each source partition adds the rows it read and the rows it shipped to ns
// (EXPLAIN ANALYZE combined=IN→OUT).
func combiner(ns *plan.NodeStats, fold, merge func(rows, groups int) dataflow.Reducer) *dataflow.Combiner {
	c := &dataflow.Combiner{Fold: fold, Merge: merge}
	if ns != nil {
		c.Seen = func(rows, shipped int) {
			ns.CombinedIn.Add(int64(rows))
			ns.CombinedOut.Add(int64(shipped))
		}
	}
	return c
}

// countRows is an identity row function counting 1:1 throughput — used to
// meter operators with no closure of their own (AddIndex).
func countRows(ns *plan.NodeStats) func(*dataflow.Arena, dataflow.Row) dataflow.Row {
	return func(_ *dataflow.Arena, r dataflow.Row) dataflow.Row {
		ns.RowsIn.Add(1)
		ns.RowsOut.Add(1)
		return r
	}
}

// instrPred wraps a row predicate with rows-in/rows-out/wall accounting.
func instrPred(ns *plan.NodeStats, pred func(dataflow.Row) bool) func(dataflow.Row) bool {
	if ns == nil {
		return pred
	}
	return func(r dataflow.Row) bool {
		start := time.Now()
		keep := pred(r)
		ns.WallNS.Add(time.Since(start).Nanoseconds())
		ns.RowsIn.Add(1)
		if keep {
			ns.RowsOut.Add(1)
		}
		return keep
	}
}

// instrMap wraps a 1:1 row function with rows/wall accounting.
func instrMap(ns *plan.NodeStats, fn func(*dataflow.Arena, dataflow.Row) dataflow.Row) func(*dataflow.Arena, dataflow.Row) dataflow.Row {
	if ns == nil {
		return fn
	}
	return func(a *dataflow.Arena, r dataflow.Row) dataflow.Row {
		start := time.Now()
		out := fn(a, r)
		ns.WallNS.Add(time.Since(start).Nanoseconds())
		ns.RowsIn.Add(1)
		ns.RowsOut.Add(1)
		return out
	}
}

// instrFlatMap wraps a 1:N row function with rows/wall accounting.
func instrFlatMap(ns *plan.NodeStats, fn func(*dataflow.Arena, []dataflow.Row, dataflow.Row) []dataflow.Row) func(*dataflow.Arena, []dataflow.Row, dataflow.Row) []dataflow.Row {
	if ns == nil {
		return fn
	}
	return func(a *dataflow.Arena, out []dataflow.Row, r dataflow.Row) []dataflow.Row {
		start := time.Now()
		n := len(out)
		out = fn(a, out, r)
		ns.WallNS.Add(time.Since(start).Nanoseconds())
		ns.RowsIn.Add(1)
		ns.RowsOut.Add(int64(len(out) - n))
		return out
	}
}
