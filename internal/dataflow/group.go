package dataflow

import (
	"math"
	"math/bits"
	"slices"
	"time"
)

// Reducer folds one key group into output rows appended to out. The group
// holds all rows sharing the composite key, in arrival order and in their
// original layout; it is a view into the partition's arena, valid only during
// the call and not to be modified: the arena is recycled once the partition is
// reduced. The rows themselves outlive it.
type Reducer func(out []Row, group []Row) []Row

// Combiner is the map-side half of a Γ+ or dedup (GroupReduce): Fold folds
// each group of a source partition into exactly one partial row, whose first
// len(cols) cells are the group's key, and Merge folds a group of partials
// into output rows, as GroupReduce's reducer does a group of rows. Seen, when
// set, is told per source partition how many rows it read and how many it
// shipped, from the partitions' tasks at once.
type Combiner struct {
	Fold, Merge func(rows, groups int) Reducer
	Seen        func(rows, shipped int)
}

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
// With combine set (and local not), each source partition whose keys repeat
// first groups its own rows the same way and folds every group into exactly
// one partial row (the "/combine" stage); a source whose groups come close to
// its rows would ship as many partials as rows, so it folds each row alone,
// with no group table. The exchange ships the partials, routed on the key
// hashes, and combine.Merge then folds each group's partials, not its rows.
// When no source's keys repeat, the rows ship as they are and newReducer
// reduces them, as without a combiner. The output is the uncombined one: an
// exchange delivers its sources in order, so a group's partials arrive in
// source order, the first one from the source its first row came from, and
// groups keep their first-seen order.
func (d *Dataset) GroupReduce(stage string, cols []int, local bool, combine *Combiner, newReducer func(rows, groups int) Reducer) (*Dataset, error) {
	in, key, reduce, release := d, cols, newReducer, func() {}
	if combine != nil && !local {
		var combined bool
		var err error
		if in, combined, release, err = d.combine(stage+"/combine", cols, combine); err != nil {
			return nil, err
		}
		if combined {
			key, reduce = in.hashCols, combine.Merge
		}
	}
	sh, err := in.RepartitionBy(stage, key, local)
	release()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	parts := make([][]Row, len(sh.parts))
	reduceErr := d.ctx.runParts(len(sh.parts), func(i int) error {
		t, g := sh.groupPart(i, key, false)
		reducer := reduce(len(g.arena), t.len())
		out := make([]Row, 0, t.len())
		for id := 0; id < t.len(); id++ {
			out = reducer(out, g.group(uint32(id)))
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

// combine is GroupReduce's map-side step. Every partition of d streams its
// rows and their key hashes over cols out of its chain once, and counts its
// distinct keys from the hashes (keysRepeat). If no partition's keys repeat,
// combine returns those rows, carrying their hashes, and combined false.
// Otherwise each partition folds its rows into partials in first-seen order —
// a partition whose keys repeat group by group, any other row by row — and
// combine returns the partials, carrying their hashes over their leading
// len(cols) columns, where the key sits. release gives back what the
// returned dataset holds once the exchange has read it.
func (d *Dataset) combine(stage string, cols []int, c *Combiner) (out *Dataset, combined bool, release func(), err error) {
	start := time.Now()
	defer func() { d.ctx.Metrics.addStage(stage, time.Since(start), 0) }()
	n := len(d.parts)
	pending := len(d.stages) > 0 || d.cat != nil
	carried := d.hashes != nil && slices.Equal(d.hashCols, cols)
	rows, hashes, repeat := make([][]Row, n), make([][]uint64, n), make([]bool, n)
	// free gives back the rows and hashes this step streamed out of d.
	free := func() {
		for i := range rows {
			if pending {
				rowScratch.put(rows[i])
			}
			if !carried {
				hashScratch.put(hashes[i])
			}
		}
	}
	err = d.ctx.runParts(n, func(i int) error {
		rs, hs := d.parts[i], []uint64(nil)
		if carried {
			hs = d.hashes[i]
		}
		if pending || !carried {
			m := d.sourceRows(i)
			if pending {
				rs = rowScratch.get(m)[:0]
			}
			if !carried {
				hs = hashScratch.get(m)[:0]
			}
			d.feedKeyed(i, cols, func(r Row, h uint64) {
				if pending {
					rs = append(rs, r)
				}
				if !carried {
					hs = append(hs, h)
				}
			})
		}
		rows[i], hashes[i], repeat[i] = rs, hs, keysRepeat(hs)
		return nil
	})
	if err != nil {
		free()
		return nil, false, nil, err
	}
	if !slices.Contains(repeat, true) {
		for _, rs := range rows {
			if c.Seen != nil {
				c.Seen(len(rs), len(rs))
			}
		}
		return &Dataset{ctx: d.ctx, parts: rows, hashes: hashes, hashCols: cols}, false, free, nil
	}
	key := make([]int, len(cols))
	for i := range key {
		key[i] = i
	}
	out = &Dataset{ctx: d.ctx, parts: make([][]Row, n), hashes: make([][]uint64, n), hashCols: key}
	err = d.ctx.runParts(n, func(i int) error {
		rs, hs := rows[i], hashes[i]
		var partials []Row
		if repeat[i] {
			t, g := (&Dataset{ctx: d.ctx, parts: [][]Row{rs}, hashes: [][]uint64{hs}, hashCols: cols}).groupPart(0, cols, false)
			fold := c.Fold(len(g.arena), t.len())
			partials = rowScratch.get(t.len())[:0]
			for id := 0; id < t.len(); id++ {
				partials = fold(partials, g.group(uint32(id)))
			}
			if len(partials) != t.len() {
				panic("dataflow: a combiner must fold each group into one partial row")
			}
			out.hashes[i] = t.groupHashes()
			t.release()
			g.release()
		} else {
			fold := c.Fold(len(rs), len(rs))
			partials = rowScratch.get(len(rs))[:0]
			for j := range rs {
				if partials = fold(partials, rs[j:j+1]); len(partials) != j+1 {
					panic("dataflow: a combiner must fold each group into one partial row")
				}
			}
			out.hashes[i] = append(hashScratch.get(len(hs))[:0], hs...)
		}
		out.parts[i] = partials
		if c.Seen != nil {
			c.Seen(len(rs), len(partials))
		}
		return nil
	})
	free()
	if err != nil {
		return nil, false, nil, err
	}
	return out, true, func() {
		for i := range out.parts {
			out.releasePart(i)
		}
	}, nil
}

// keysRepeat reports whether the keys whose hashes are hs repeat enough for
// folding them to ship noticeably fewer rows: whether a linear-counting
// estimate of their distinct values (one bit per hash over at least twice as
// many bits as hashes) is under three quarters of them.
func keysRepeat(hs []uint64) bool {
	if len(hs) < 2 {
		return false
	}
	shift := uint(64 - bits.Len(uint(2*len(hs)-1)))
	m := 1 << (64 - shift)
	set := hashScratch.get(max(m/64, 1))
	for _, h := range hs {
		b := (h * 0x9E3779B97F4A7C15) >> shift
		set[b/64] |= 1 << (b % 64)
	}
	ones := 0
	for _, w := range set {
		ones += bits.OnesCount64(w)
	}
	hashScratch.put(set)
	if ones == m {
		return false
	}
	return float64(m)*math.Log(float64(m)/float64(m-ones)) < 0.75*float64(len(hs))
}

// Distinct removes duplicate rows (whole-row key). Implements the paper's
// dedup over flat bags: one shuffle (none when local, see GroupReduce), then
// per-partition elimination. With combine set — KeepFirst both ways — each
// source partition whose rows repeat drops its own duplicates before the
// exchange. Pending stages are materialized first because the key spans every
// output column.
func (d *Dataset) Distinct(stage string, local bool, combine *Combiner) (*Dataset, error) {
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
