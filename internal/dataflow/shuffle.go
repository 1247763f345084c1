package dataflow

import (
	"time"

	"github.com/trance-go/trance/internal/value"
)

// RepartitionBy hash-partitions the dataset on the given key columns. If the
// dataset already carries an identical partitioning guarantee the shuffle is
// skipped entirely — this is how partitioning guarantees cut data movement
// (paper Section 3). Every row moved through the shuffle is metered at the
// size of its buffer's typed wire encoding (see wireSize).
func (d *Dataset) RepartitionBy(stage string, cols []int) (*Dataset, error) {
	if d.err != nil {
		return nil, d.err
	}
	want := &Partitioner{Cols: cols}
	if !d.ctx.DisableGuarantees && d.partitioner.equal(want) && len(d.parts) == d.ctx.Parallelism {
		d.ctx.Metrics.SkippedShuffles.Add(1)
		return d, nil
	}
	out, err := d.shuffle(stage, cols)
	if err != nil {
		return nil, err
	}
	out.partitioner = want
	return out, nil
}

// exchangeBuffers is what one map task hands the reduce side: per target, the
// routed rows, their routing hashes (a side channel the byte meter does not
// see, it is defined over cells) and their value.SizeRows, which falls out of
// the metering walk.
type exchangeBuffers struct {
	rows   [][]Row
	hashes [][]uint64
	mem    []int64
}

// shuffle redistributes rows into Parallelism partitions by value.HashCols
// over cols. Buffers are metered at their typed wire encoding and the routing
// hashes travel with the rows; a source whose rows disagree on width is
// metered by value.SizeRows.
//
// The exchange is pipelined: each map-side task streams its partition through
// the dataset's fused narrow-operator chain directly into P per-target row
// buffers — the pre-shuffle map/filter chain is never materialized. Each
// reduce-side task then concatenates its (source,target) buffers. Both sides
// run goroutine-per-partition on the bounded worker pool, and every buffer
// crossing the boundary is metered (per buffer, after routing). Rows are the
// only representation that crosses; the meter reads them, it does not copy
// them, and the one walk it makes also yields the in-memory size the
// per-partition peak and the memory cap are checked against.
func (d *Dataset) shuffle(stage string, cols []int) (*Dataset, error) {
	if d.err != nil {
		return nil, d.err
	}
	c := d.ctx
	p := c.Parallelism
	c.Metrics.Stages.Add(1)
	start := time.Now()

	// Map side: source partition i streams into buckets[i].rows[t] for
	// target t.
	buckets := make([]exchangeBuffers, len(d.parts))
	mapErr := c.runParts(len(d.parts), func(i int) error {
		local := exchangeBuffers{rows: make([][]Row, p), hashes: make([][]uint64, p), mem: make([]int64, p)}
		// Pre-size every per-target slice for a uniform spread of this
		// source's rows — a capacity hint only, skew just grows past it.
		hint := len(d.parts[i])/p + 1
		for t := range local.rows {
			local.rows[t] = make([]Row, 0, hint)
			local.hashes[t] = make([]uint64, 0, hint)
		}
		width, ragged := -1, false
		d.feed(i, func(r Row) {
			if width < 0 {
				width = len(r)
			} else if len(r) != width {
				ragged = true
			}
			h := value.HashCols(r, cols)
			t := int(h % uint64(p))
			local.rows[t] = append(local.rows[t], r)
			local.hashes[t] = append(local.hashes[t], h)
		})
		var ex ExchangeStat
		var recs int64
		var meter wireMeter
		for t, buf := range local.rows {
			if len(buf) == 0 {
				continue
			}
			recs += int64(len(buf))
			if !ragged {
				var wire int64
				wire, local.mem[t] = meter.wireSize(buf)
				ex.ColumnarBuffers++
				ex.ColumnarBytes += wire
			} else {
				local.mem[t] = value.SizeRows(buf)
				ex.BoxedBuffers++
				ex.BoxedBytes += local.mem[t]
			}
		}
		buckets[i] = local
		c.Metrics.ShuffleBytes.Add(ex.ColumnarBytes + ex.BoxedBytes)
		c.Metrics.ShuffleRecords.Add(recs)
		c.Metrics.addExchange(stage, ex)
		return nil
	})
	if mapErr != nil {
		c.Metrics.AddStageWall(stage, time.Since(start))
		return nil, mapErr
	}

	// Reduce side: each target partition concatenates its buffers in source
	// order and sums their sizes.
	out := &Dataset{ctx: c, parts: make([][]Row, p), hashes: make([][]uint64, p)}
	mem := make([]int64, p)
	reduceErr := c.runParts(p, func(t int) error {
		var n int
		for i := range buckets {
			n += len(buckets[i].rows[t])
			mem[t] += buckets[i].mem[t]
		}
		rows, hashes := make([]Row, 0, n), make([]uint64, 0, n)
		for i := range buckets {
			rows = append(rows, buckets[i].rows[t]...)
			hashes = append(hashes, buckets[i].hashes[t]...)
		}
		out.parts[t], out.hashes[t] = rows, hashes
		return nil
	})
	c.Metrics.AddStageWall(stage, time.Since(start))
	if reduceErr != nil {
		return nil, reduceErr
	}
	if err := c.checkSizes(stage, out.parts, mem); err != nil {
		return nil, err
	}
	return out, nil
}

// Kind is the physical type wireMeter latches for a column of an exchange
// buffer.
type Kind uint8

// Column kinds. KindBoxed covers labels, nested bags/tuples, and columns
// holding scalars of more than one kind.
const (
	KindInt64 Kind = iota
	KindFloat64
	KindString
	KindBool
	KindDate
	KindBoxed
)

// wireMeter sizes exchange buffers; its only state is per-column scratch
// reused from one buffer to the next.
type wireMeter struct{ cols []wireCol }

// wireCol is the meter's state for one column of the buffer being sized.
type wireCol struct {
	// kind is latched by the first non-NULL cell and turns KindBoxed on a
	// non-scalar cell or a cell of another kind.
	kind    Kind
	nonNull int
	// bytes is the string payload of a KindString column, or Σ value.Size of
	// the non-NULL cells of a KindBoxed one.
	bytes int64
}

// wireSize returns two sizes of one (source,target) buffer of uniform-width
// rows from a single walk. wire is the size of the compact typed encoding a
// network shuffle would move — what ShuffleBytes meters.
// Per column: 8 bytes per row for int64/float64/date, string bytes plus a
// 4-byte length per row, one bit per row for bool (in 64-bit words), Σ
// value.Size of the non-NULL cells for a boxed column (non-scalar cells, or
// scalars of more than one kind), plus a one-bit-per-row null bitmap (in
// 64-bit words) if the column has a NULL. An all-NULL column costs its bitmap
// and nothing else. Compared with value.SizeRows this drops the per-row tuple
// framing and bit-packs bools and NULLs. mem is value.SizeRows(rows) itself —
// the in-memory estimate the partition peak and the memory cap use —
// recovered from the same per-column counts: 4 per row, 1 per NULL, and per
// non-NULL cell 8, 1 (bool), 4 plus the payload (string) or its value.Size
// (boxed).
func (m *wireMeter) wireSize(rows []Row) (wire, mem int64) {
	width := len(rows[0])
	if cap(m.cols) < width {
		m.cols = make([]wireCol, width)
	}
	cols := m.cols[:width]
	clear(cols)
	for _, r := range rows {
		for ci, v := range r {
			if v == nil {
				continue
			}
			k, payload := KindBoxed, int64(0)
			switch x := v.(type) {
			case int64:
				k = KindInt64
			case float64:
				k = KindFloat64
			case string:
				k, payload = KindString, int64(len(x))
			case bool:
				k = KindBool
			case value.Date:
				k = KindDate
			}
			c := &cols[ci]
			if c.nonNull == 0 {
				c.kind = k
			} else if c.kind != k && c.kind != KindBoxed {
				// Kind conflict: the column goes boxed. Σ value.Size of the
				// cells seen so far follows from the counts.
				per := int64(8)
				switch c.kind {
				case KindString:
					per = 4
				case KindBool:
					per = 1
				}
				c.bytes += per * int64(c.nonNull)
				c.kind = KindBoxed
			}
			c.nonNull++
			if c.kind == KindBoxed {
				c.bytes += value.Size(v)
			} else {
				c.bytes += payload
			}
		}
	}
	n := len(rows)
	bitmap := int64(8 * ((n + 63) / 64))
	mem = int64(4 * n)
	for i := range cols {
		c := &cols[i]
		mem += int64(n - c.nonNull)
		if c.nonNull < n {
			wire += bitmap
		}
		if c.nonNull == 0 {
			continue
		}
		switch c.kind {
		case KindInt64, KindFloat64, KindDate:
			wire += int64(8 * n)
			mem += int64(8 * c.nonNull)
		case KindString:
			wire += int64(4*n) + c.bytes
			mem += int64(4*c.nonNull) + c.bytes
		case KindBool:
			wire += bitmap
			mem += int64(c.nonNull)
		default:
			wire += c.bytes
			mem += c.bytes
		}
	}
	return wire, mem
}
