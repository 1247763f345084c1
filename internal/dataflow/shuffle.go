package dataflow

import (
	"sync/atomic"
	"time"

	"github.com/trance-go/trance/internal/value"
)

// exchangeBuffers is what one map task hands the reduce side: per target, the
// routed rows, their routing hashes (a side channel the byte meter does not
// see, it is defined over cells) and their value.SizeRows, which falls out of
// the metering walk.
type exchangeBuffers struct {
	rows   [][]Row
	hashes [][]uint64
	mem    []int64
}

// RepartitionBy redistributes rows into Parallelism partitions by
// value.HashCols over cols — the hashes d carries over cols, if it does (a
// combined Γ's partials). Buffers are metered at their typed wire encoding
// (wireSize) and the routing hashes travel with the rows. The stage's bytes
// are recorded once, with its wall time, when the exchange ends.
//
// With placed set the caller asserts that the rows already lie where the
// exchange would put them (plan.Place decided so): the exchange is skipped,
// counted in SkippedShuffles, and d comes back as it is — this is how
// partitioning guarantees cut data movement (paper Section 3).
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
func (d *Dataset) RepartitionBy(stage string, cols []int, placed bool) (*Dataset, error) {
	if d.err != nil {
		return nil, d.err
	}
	c := d.ctx
	if placed {
		c.Metrics.SkippedShuffles.Add(1)
		return d, nil
	}
	p := c.Parallelism
	c.Metrics.Stages.Add(1)
	start := time.Now()

	// Map side: source partition i streams into buckets[i].rows[t] for
	// target t.
	buckets := make([]exchangeBuffers, len(d.parts))
	var shuffled atomic.Int64
	mapErr := c.runParts(len(d.parts), func(i int) error {
		local := exchangeBuffers{rows: make([][]Row, p), hashes: make([][]uint64, p), mem: make([]int64, p)}
		// Pre-size every per-target slice for a uniform spread of this
		// source's rows — a capacity hint only, skew just grows past it.
		hint := d.sourceRows(i)/p + 1
		for t := range local.rows {
			local.rows[t] = rowScratch.get(hint)[:0]
			local.hashes[t] = hashScratch.get(hint)[:0]
		}
		d.feedKeyed(i, cols, func(r Row, h uint64) {
			t := int(h % uint64(p))
			local.rows[t] = append(local.rows[t], r)
			local.hashes[t] = append(local.hashes[t], h)
		})
		var meter wireMeter
		var wire, recs int64
		for t, buf := range local.rows {
			if len(buf) == 0 {
				continue
			}
			var w int64
			w, local.mem[t] = meter.wireSize(buf)
			wire += w
			recs += int64(len(buf))
		}
		buckets[i] = local
		shuffled.Add(wire)
		c.Metrics.ShuffleRecords.Add(recs)
		return nil
	})
	bytes := shuffled.Load()
	c.Metrics.ShuffleBytes.Add(bytes)
	if mapErr != nil {
		c.Metrics.addStage(stage, time.Since(start), bytes)
		return nil, mapErr
	}

	// Reduce side: each target partition concatenates its buffers in source
	// order, sums their sizes and releases them.
	out := &Dataset{ctx: c, parts: make([][]Row, p), hashes: make([][]uint64, p), hashCols: cols}
	mem := make([]int64, p)
	reduceErr := c.runParts(p, func(t int) error {
		var n int
		for i := range buckets {
			n += len(buckets[i].rows[t])
			mem[t] += buckets[i].mem[t]
		}
		rows, hashes := rowScratch.get(n)[:0], hashScratch.get(n)[:0]
		for i := range buckets {
			rows = append(rows, buckets[i].rows[t]...)
			hashes = append(hashes, buckets[i].hashes[t]...)
			rowScratch.put(buckets[i].rows[t])
			hashScratch.put(buckets[i].hashes[t])
		}
		out.parts[t], out.hashes[t] = rows, hashes
		return nil
	})
	c.Metrics.addStage(stage, time.Since(start), bytes)
	if reduceErr != nil {
		return nil, reduceErr
	}
	if err := c.checkSizes(stage, out.parts, mem); err != nil {
		return nil, err
	}
	return out, nil
}

// kind is the physical type wireMeter latches for a column of an exchange
// buffer. kindBoxed covers labels, nested bags/tuples, and columns holding
// scalars of more than one kind.
type kind uint8

const (
	kindInt64 kind = iota
	kindFloat64
	kindString
	kindBool
	kindDate
	kindBoxed
)

// wireMeter sizes exchange buffers; its only state is per-column scratch
// reused from one buffer to the next.
type wireMeter struct{ cols []wireCol }

// wireCol is the meter's state for one column of the buffer being sized.
type wireCol struct {
	// kind is latched by the first non-NULL cell and turns kindBoxed on a
	// non-scalar cell or a cell of another kind.
	kind    kind
	nonNull int
	// bytes is the string payload of a kindString column, or Σ value.Size of
	// the non-NULL cells of a kindBoxed one.
	bytes int64
}

// wireSize returns two sizes of one (source,target) buffer from a single walk.
// wire is the size of the compact typed encoding a network shuffle would move
// — what ShuffleBytes meters. The buffer is as wide as its widest row; a row
// narrower than that has NULLs in its missing trailing cells. Per column: 8
// bytes per row for int64/float64/date, string bytes plus a 4-byte length per
// row, one bit per row for bool (in 64-bit words), Σ value.Size of the
// non-NULL cells for a boxed column (non-scalar cells, or scalars of more
// than one kind), plus a one-bit-per-row null bitmap (in 64-bit words) if the
// column has a NULL. An all-NULL column costs its bitmap and nothing else.
// Compared with value.SizeRows this drops the per-row tuple framing and
// bit-packs bools and NULLs. mem is value.SizeRows(rows) itself — the
// in-memory estimate the partition peak and the memory cap use — recovered
// from the same counts: 4 per row, 1 per NULL cell a row holds, and per
// non-NULL cell 8, 1 (bool), 4 plus the payload (string) or its value.Size
// (boxed).
func (m *wireMeter) wireSize(rows []Row) (wire, mem int64) {
	cols := m.cols[:0]
	var cells int
	for _, r := range rows {
		for len(cols) < len(r) {
			cols = append(cols, wireCol{})
		}
		cells += len(r)
		for ci, v := range r {
			if v == nil {
				continue
			}
			k, payload := kindBoxed, int64(0)
			switch x := v.(type) {
			case int64:
				k = kindInt64
			case float64:
				k = kindFloat64
			case string:
				k, payload = kindString, int64(len(x))
			case bool:
				k = kindBool
			case value.Date:
				k = kindDate
			}
			c := &cols[ci]
			if c.nonNull == 0 {
				c.kind = k
			} else if c.kind != k && c.kind != kindBoxed {
				// Kind conflict: the column goes boxed. Σ value.Size of the
				// cells seen so far follows from the counts.
				per := int64(8)
				switch c.kind {
				case kindString:
					per = 4
				case kindBool:
					per = 1
				}
				c.bytes += per * int64(c.nonNull)
				c.kind = kindBoxed
			}
			c.nonNull++
			if c.kind == kindBoxed {
				c.bytes += value.Size(v)
			} else {
				c.bytes += payload
			}
		}
	}
	m.cols = cols
	n := len(rows)
	bitmap := int64(8 * ((n + 63) / 64))
	mem = int64(4*n + cells)
	for i := range cols {
		c := &cols[i]
		mem -= int64(c.nonNull)
		if c.nonNull < n {
			wire += bitmap
		}
		if c.nonNull == 0 {
			continue
		}
		switch c.kind {
		case kindInt64, kindFloat64, kindDate:
			wire += int64(8 * n)
			mem += int64(8 * c.nonNull)
		case kindString:
			wire += int64(4*n) + c.bytes
			mem += int64(4*c.nonNull) + c.bytes
		case kindBool:
			wire += bitmap
			mem += int64(c.nonNull)
		default:
			wire += c.bytes
			mem += c.bytes
		}
	}
	return wire, mem
}
