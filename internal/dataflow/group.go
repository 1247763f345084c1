package dataflow

import "time"

// Reducer folds one key group into output rows appended to out. The group
// holds all rows sharing the composite key, in arrival order and in their
// original layout; it is a view into the partition's arena, valid only during
// the call and not to be modified: the arena is recycled once the partition is
// reduced. The rows themselves outlive it.
type Reducer func(out []Row, group []Row) []Row

// GroupReduce hash-partitions by the key columns and reduces every key group,
// streaming rows through any pending fused operator chain into the group
// table. Grouping is two-pass — intern every row's key, then place the rows
// group by group in one arena — so newReducer is instantiated once per
// partition knowing how many rows and groups it will see (a reducer can cut
// its output from slabs sized up front) and is then called once per group in
// first-seen order.
//
// With local set the caller asserts that rows equal on cols already share a
// partition (plan.Place): each partition reduces the groups it holds, with no
// exchange, counted as a skipped shuffle, and the result keeps d's partition
// count. The reduce is the same: an exchange would deliver every group from its
// one source partition, in feed order, which is the order it is reduced in
// here.
func (d *Dataset) GroupReduce(stage string, cols []int, local bool, newReducer func(rows, groups int) Reducer) (*Dataset, error) {
	sh, err := d.RepartitionBy(stage, cols, local)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	parts := make([][]Row, len(sh.parts))
	reduceErr := d.ctx.runParts(len(sh.parts), func(i int) error {
		t, g := sh.groupPart(i, cols, false)
		reduce := newReducer(len(g.arena), t.len())
		out := make([]Row, 0, t.len())
		for id := 0; id < t.len(); id++ {
			out = reduce(out, g.group(uint32(id)))
		}
		parts[i] = out
		t.release()
		g.release()
		if sh != d {
			sh.releasePart(i)
		}
		return nil
	})
	d.ctx.Metrics.addStage(stage+"/reduce", time.Since(start), 0)
	if reduceErr != nil {
		return nil, reduceErr
	}
	if err := d.ctx.checkPartitions(stage+"/reduce", parts); err != nil {
		return nil, err
	}
	return &Dataset{ctx: d.ctx, parts: parts}, nil
}

// Distinct removes duplicate rows (whole-row key). Implements the paper's
// dedup over flat bags: one shuffle (none when local, see GroupReduce), then
// per-partition elimination. Pending stages are materialized first because the
// key spans every output column.
func (d *Dataset) Distinct(stage string, local bool) (*Dataset, error) {
	if err := d.force(); err != nil {
		return nil, err
	}
	width := 0
	for _, p := range d.parts {
		if len(p) > 0 {
			width = len(p[0])
			break
		}
	}
	cols := make([]int, width)
	for i := range cols {
		cols[i] = i
	}
	return d.GroupReduce(stage, cols, local, func(int, int) Reducer {
		return func(out, group []Row) []Row { return append(out, group[0]) }
	})
}
