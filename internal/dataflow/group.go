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
//
// With combine set (and local not), each source partition first groups its
// own rows the same way and folds every group into exactly one partial row
// with combine, whose first len(cols) cells are the group's key (the
// "/combine" stage). The exchange ships the partials, routed on the hashes
// the group table computed, and newReducer then folds each group's partials,
// not its rows. The output is the uncombined one: an exchange delivers its
// sources in order, so a group's partials arrive in source order, the first
// one from the source its first row came from, and groups keep their
// first-seen order.
func (d *Dataset) GroupReduce(stage string, cols []int, local bool, combine, newReducer func(rows, groups int) Reducer) (*Dataset, error) {
	in, key := d, cols
	if combine != nil && !local {
		var err error
		if in, err = d.combine(stage+"/combine", cols, combine); err != nil {
			return nil, err
		}
		key = in.hashCols
	}
	sh, err := in.RepartitionBy(stage, key, local)
	if in != d {
		for i := range in.parts {
			in.releasePart(i)
		}
	}
	if err != nil {
		return nil, err
	}
	start := time.Now()
	parts := make([][]Row, len(sh.parts))
	reduceErr := d.ctx.runParts(len(sh.parts), func(i int) error {
		t, g := sh.groupPart(i, key, false)
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

// combine is GroupReduce's map-side step: every partition of d folds each of
// its groups on cols into the one partial row newCombiner's reducer appends,
// in first-seen order. The partials come back with their groups' hashes,
// carried over their leading len(cols) columns, where the key sits.
func (d *Dataset) combine(stage string, cols []int, newCombiner func(rows, groups int) Reducer) (*Dataset, error) {
	start := time.Now()
	key := make([]int, len(cols))
	for i := range key {
		key[i] = i
	}
	out := &Dataset{ctx: d.ctx, parts: make([][]Row, len(d.parts)), hashes: make([][]uint64, len(d.parts)), hashCols: key}
	err := d.ctx.runParts(len(d.parts), func(i int) error {
		t, g := d.groupPart(i, cols, false)
		fold := newCombiner(len(g.arena), t.len())
		partials := rowScratch.get(t.len())[:0]
		for id := 0; id < t.len(); id++ {
			partials = fold(partials, g.group(uint32(id)))
		}
		if len(partials) != t.len() {
			panic("dataflow: a combiner must fold each group into one partial row")
		}
		out.parts[i], out.hashes[i] = partials, t.groupHashes()
		t.release()
		g.release()
		return nil
	})
	d.ctx.Metrics.addStage(stage, time.Since(start), 0)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Distinct removes duplicate rows (whole-row key). Implements the paper's
// dedup over flat bags: one shuffle (none when local, see GroupReduce), then
// per-partition elimination. With combine set — KeepFirst, or a wrapper of it
// — each source partition drops its own duplicates before the exchange.
// Pending stages are materialized first because the key spans every output
// column.
func (d *Dataset) Distinct(stage string, local bool, combine func(rows, groups int) Reducer) (*Dataset, error) {
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
	return d.GroupReduce(stage, cols, local, combine, KeepFirst)
}

// KeepFirst is dedup's reducer: a group's first row.
func KeepFirst(int, int) Reducer {
	return func(out, group []Row) []Row { return append(out, group[0]) }
}
