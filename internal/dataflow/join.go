package dataflow

import (
	"slices"
	"time"

	"github.com/trance-go/trance/internal/value"
)

// Join performs an equi-join with d as the left input. Both sides are
// hash-partitioned on their key columns — except a side placed says already
// lies so (RepartitionBy) — then joined per partition with a build-probe hash
// join; probe rows stream through any pending fused operator chain of the left
// side. Output rows are what jo writes over left ++ right. With leftOuter set,
// unmatched left rows survive with NULL right columns — the NULL machinery the
// Γ operators later cast away.
//
// Rows whose key contains a NULL never match (SQL semantics); under
// leftOuter they are preserved with NULL padding.
func (d *Dataset) Join(stage string, right *Dataset, lcols, rcols []int, placed [2]bool, jo JoinOut, leftOuter bool) (*Dataset, error) {
	ls, err := d.RepartitionBy(stage+"/L", lcols, placed[0])
	if err != nil {
		return nil, err
	}
	// Right must land on the same partition for equal keys: hash the key
	// values, not positions. RepartitionBy hashes column values, so equal
	// keys on both sides collide iff their value encodings match.
	rs, err := right.RepartitionBy(stage+"/R", rcols, placed[1])
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
		out := newRowBuilder(ls.sourceRows(i))
		write := jo.writer()
		ls.feedKeyed(i, lcols, func(l Row, h uint64) {
			build.probe(out, l, h, lcols, write, leftOuter)
		})
		parts[i] = out.rows()
		build.release()
		if ls != d {
			ls.releasePart(i)
		}
		if rs != right && i < len(rs.parts) {
			rs.releasePart(i)
		}
		return nil
	})
	d.ctx.Metrics.addStage(stage, time.Since(start), 0)
	if joinErr != nil {
		return nil, joinErr
	}
	if err := d.ctx.checkPartitions(stage+"/out", parts); err != nil {
		return nil, err
	}
	return &Dataset{ctx: d.ctx, parts: parts}, nil
}

// BroadcastJoin replicates the right side to every partition of the left and
// joins locally: no shuffle of the left at all — left rows stream through
// their fused chain straight into the probe, and stay in their partitions (the
// property the skew-aware join of paper Figure 6 relies on to leave heavy keys
// where they are). The broadcast volume is metered separately from shuffle
// (Spark likewise reports it apart).
func (d *Dataset) BroadcastJoin(stage string, right *Dataset, lcols, rcols []int, jo JoinOut, leftOuter bool) (*Dataset, error) {
	out, err := BroadcastJoins(stage, []*Dataset{d}, right, lcols, rcols, jo, leftOuter)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// BroadcastJoins is BroadcastJoin of each of lefts, datasets of one context —
// the components of a skew-triple — over one broadcast of right: it collects
// right once, builds one hash table every partition of every left probes
// read-only, meters the broadcast once and records one stage.
func BroadcastJoins(stage string, lefts []*Dataset, right *Dataset, lcols, rcols []int, jo JoinOut, leftOuter bool) ([]*Dataset, error) {
	for _, d := range lefts {
		if d.err != nil {
			return nil, d.err
		}
	}
	ctx := lefts[0].ctx
	rrows := right.Collect()
	if right.err != nil {
		return nil, right.err
	}
	ctx.Metrics.BroadcastBytes.Add(value.SizeRows(rrows) * int64(ctx.Parallelism))
	start := time.Now()
	// One table over the collected rows, probed read-only by every partition.
	// With rcols nil (cross join) every row lands under the empty key, so each
	// probe matches all of them.
	var build joinTable
	build.keys, build.rows = ctx.FromPartitions([][]Row{rrows}).groupPart(0, rcols, true)
	outs := make([]*Dataset, len(lefts))
	var joinErr error
	for k, d := range lefts {
		parts := make([][]Row, len(d.parts))
		joinErr = ctx.runParts(len(d.parts), func(i int) error {
			out := newRowBuilder(d.sourceRows(i))
			write := jo.writer()
			d.feedKeyed(i, lcols, func(l Row, h uint64) {
				build.probe(out, l, h, lcols, write, leftOuter)
			})
			parts[i] = out.rows()
			return nil
		})
		if joinErr != nil {
			break
		}
		outs[k] = &Dataset{ctx: ctx, parts: parts}
	}
	build.release()
	ctx.Metrics.addStage(stage, time.Since(start), 0)
	if joinErr != nil {
		return nil, joinErr
	}
	for _, o := range outs {
		if err := ctx.checkPartitions(stage+"/out", o.parts); err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// JoinOut describes the row a join writes for a left row l and a right row r
// over the layout l ++ r. The zero Cols writes that layout itself.
type JoinOut struct {
	// RightWidth is the width of the right rows: the NULL cells an unmatched
	// outer row has in their place.
	RightWidth int
	// Cols, when non-nil, lists the cells of an output row: a position of
	// l ++ r to copy, or -1 for the cell Eval computes from the l ++ r row.
	Cols []int
	// Eval parallels Cols, set where Cols is -1.
	Eval []func(Row) value.Value
}

// writer returns what writes the output rows of one partition task: write(l,
// r) is the row of a match, write(l, nil) that of an outer join's miss. Rows
// are cut from the task's arena, and computed cells read a scratch l ++ r row
// that is reused.
func (o JoinOut) writer() (write func(l, r Row) Row) {
	var arena Arena
	if o.Cols == nil {
		return func(l, r Row) Row {
			nr := arena.Row(len(l) + o.RightWidth)
			copy(nr, l)
			copy(nr[len(l):], r)
			return nr
		}
	}
	var scratch Row
	computed := slices.Contains(o.Cols, -1)
	return func(l, r Row) Row {
		if computed {
			scratch = append(append(scratch[:0], l...), r...)
			for len(scratch) < len(l)+o.RightWidth {
				scratch = append(scratch, nil)
			}
		}
		nr := arena.Row(len(o.Cols))
		for i, c := range o.Cols {
			switch {
			case c < 0:
				nr[i] = o.Eval[i](scratch)
			case c < len(l):
				nr[i] = l[c]
			case r != nil:
				nr[i] = r[c-len(l)]
			}
		}
		return nr
	}
}

// joinTable is the build side of a hash join: the distinct non-NULL keys and
// the build rows placed under them in build order. The zero value matches
// nothing.
type joinTable struct {
	keys *groupTable
	rows grouped
}

// probe adds to out the rows one left row (key hash h over lcols) joins to:
// what write makes of every match in build order, or of the miss under
// leftOuter when there is none.
func (b *joinTable) probe(out *rowBuilder, l Row, h uint64, lcols []int, write func(l, r Row) Row, leftOuter bool) {
	var matches []Row
	if b.keys != nil && !anyNullCols(l, lcols) {
		matches = b.rows.group(b.keys.find(h, l, lcols))
	}
	if len(matches) == 0 && leftOuter {
		out.add(write(l, nil))
		return
	}
	for _, r := range matches {
		out.add(write(l, r))
	}
}

func anyNullCols(r Row, cols []int) bool {
	for _, c := range cols {
		if r[c] == nil {
			return true
		}
	}
	return false
}
