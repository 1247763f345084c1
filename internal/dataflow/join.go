package dataflow

import (
	"time"

	"github.com/trance-go/trance/internal/value"
)

// Join performs an equi-join with d as the left input. Both sides are
// hash-partitioned on their key columns (shuffles are skipped for sides whose
// partitioning guarantee already matches), then joined per partition with a
// build-probe hash join; probe rows stream through any pending fused operator
// chain of the left side. Output rows are left ++ right. With leftOuter set,
// unmatched left rows survive padded with rightWidth NULL columns — the NULL
// machinery the Γ operators later cast away.
//
// Rows whose key contains a NULL never match (SQL semantics); under
// leftOuter they are preserved with NULL padding.
func (d *Dataset) Join(stage string, right *Dataset, lcols, rcols []int, rightWidth int, leftOuter bool) (*Dataset, error) {
	ls, err := d.RepartitionBy(stage+"/L", lcols)
	if err != nil {
		return nil, err
	}
	// Right must land on the same partition for equal keys: hash the key
	// values, not positions. RepartitionBy hashes column values, so equal
	// keys on both sides collide iff their value encodings match.
	rs, err := right.RepartitionBy(stage+"/R", rcols)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	parts := make([][]Row, len(ls.parts))
	joinErr := d.ctx.runParts(len(ls.parts), func(i int) error {
		var build joinTable
		if i < len(rs.parts) {
			build.keys, build.rows = rs.groupPart(i, rcols, true)
		}
		var out []Row
		ls.feedKeyed(i, lcols, func(l Row, h uint64) {
			out = build.probe(out, l, h, lcols, rightWidth, leftOuter)
		})
		parts[i] = out
		return nil
	})
	d.ctx.Metrics.AddStageWall(stage, time.Since(start))
	if joinErr != nil {
		return nil, joinErr
	}
	if err := d.ctx.checkPartitions(stage+"/out", parts); err != nil {
		return nil, err
	}
	out := &Dataset{ctx: d.ctx, parts: parts}
	out.partitioner = &Partitioner{Cols: lcols}
	return out, nil
}

// BroadcastJoin replicates the right side to every partition of the left and
// joins locally: no shuffle of the left at all — left rows stream through
// their fused chain straight into the probe. The broadcast volume is metered
// separately from shuffle (Spark likewise reports it apart). The left's
// partitioning guarantee is preserved — the property the skew-aware join of
// paper Figure 6 relies on to leave heavy keys where they are.
func (d *Dataset) BroadcastJoin(stage string, right *Dataset, lcols, rcols []int, rightWidth int, leftOuter bool) (*Dataset, error) {
	if d.err != nil {
		return nil, d.err
	}
	rrows := right.Collect()
	if right.err != nil {
		return nil, right.err
	}
	d.ctx.Metrics.BroadcastBytes.Add(value.SizeRows(rrows) * int64(d.ctx.Parallelism))
	start := time.Now()
	// One table over the collected rows, probed read-only by every partition.
	// With rcols nil (cross join) every row lands under the empty key, so each
	// probe matches all of them.
	var build joinTable
	build.keys, build.rows = d.ctx.FromPartitions([][]Row{rrows}).groupPart(0, rcols, true)
	parts := make([][]Row, len(d.parts))
	joinErr := d.ctx.runParts(len(d.parts), func(i int) error {
		var out []Row
		d.feedKeyed(i, lcols, func(l Row, h uint64) {
			out = build.probe(out, l, h, lcols, rightWidth, leftOuter)
		})
		parts[i] = out
		return nil
	})
	d.ctx.Metrics.AddStageWall(stage, time.Since(start))
	if joinErr != nil {
		return nil, joinErr
	}
	if err := d.ctx.checkPartitions(stage+"/out", parts); err != nil {
		return nil, err
	}
	out := &Dataset{ctx: d.ctx, parts: parts}
	out.partitioner = d.partitioner
	return out, nil
}

// joinTable is the build side of a hash join: the distinct non-NULL keys and
// the build rows placed under them in build order. The zero value matches
// nothing.
type joinTable struct {
	keys *groupTable
	rows grouped
}

// probe appends to out the rows one left row (key hash h over lcols) joins to:
// left ++ right for every match in build order, or the NULL-padded row under
// leftOuter when there is none.
func (b *joinTable) probe(out []Row, l Row, h uint64, lcols []int, rightWidth int, leftOuter bool) []Row {
	var matches []Row
	if b.keys != nil && !anyNullCols(l, lcols) {
		matches = b.rows.group(b.keys.find(h, l, lcols))
	}
	if len(matches) == 0 {
		if leftOuter {
			out = append(out, padRight(l, rightWidth))
		}
		return out
	}
	for _, r := range matches {
		nr := make(Row, len(l)+len(r))
		copy(nr, l)
		copy(nr[len(l):], r)
		out = append(out, nr)
	}
	return out
}

func anyNullCols(r Row, cols []int) bool {
	for _, c := range cols {
		if r[c] == nil {
			return true
		}
	}
	return false
}

func padRight(l Row, rightWidth int) Row {
	nr := make(Row, len(l)+rightWidth)
	copy(nr, l)
	return nr
}

// CoGroup shuffles both sides on their keys and invokes fn once per distinct
// left key, in first-seen order, with all left and right rows carrying it. It
// is the engine primitive behind the paper's join+nest → cogroup fusion
// (Section 3, Optimization): grouping happens during the join, avoiding a
// separate regrouping shuffle.
func (d *Dataset) CoGroup(stage string, right *Dataset, lcols, rcols []int, fn func(lrows, rrows []Row) []Row) (*Dataset, error) {
	ls, err := d.RepartitionBy(stage+"/L", lcols)
	if err != nil {
		return nil, err
	}
	rs, err := right.RepartitionBy(stage+"/R", rcols)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	parts := make([][]Row, len(ls.parts))
	cgErr := d.ctx.runParts(len(ls.parts), func(i int) error {
		keys, lrows := ls.groupPart(i, lcols, false)
		// The right side looks itself up under the left's keys: a right row
		// whose key no left row carries belongs to no group.
		var rrows grouped
		if i < len(rs.parts) {
			rows, ids := rs.assignPart(i, rcols, func(r Row, h uint64) uint32 {
				if anyNullCols(r, rcols) {
					return noGroup
				}
				return keys.find(h, r, rcols)
			})
			rrows = place(rows, ids, keys.len())
		}
		var out []Row
		for id := 0; id < keys.len(); id++ {
			out = append(out, fn(lrows.group(uint32(id)), rrows.group(uint32(id)))...)
		}
		parts[i] = out
		return nil
	})
	d.ctx.Metrics.AddStageWall(stage, time.Since(start))
	if cgErr != nil {
		return nil, cgErr
	}
	if err := d.ctx.checkPartitions(stage+"/out", parts); err != nil {
		return nil, err
	}
	return &Dataset{ctx: d.ctx, parts: parts}, nil
}
