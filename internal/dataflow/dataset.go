package dataflow

import (
	"errors"
	"slices"

	"github.com/trance-go/trance/internal/value"
)

// stageFn is one fused narrow operator: it transforms a single input row into
// zero or more output rows via emit.
type stageFn func(r Row, emit func(Row))

// stageFactory instantiates a stage for one partition. Stages that carry
// per-partition state (AddUniqueID's sequence counter) get a fresh instance
// per partition per pass, which keeps replays deterministic and parallel
// passes race-free.
type stageFactory func(part int) stageFn

// Dataset is a partitioned collection of rows bound to a Context. Rows are
// never mutated, but the Dataset itself is lazy with respect to narrow
// operators: parts holds the materialized source partitions and stages the
// pending fused operator chain. Wide operators and actions stream rows
// through the chain (one pass, no intermediate slices); force caches the
// result in place when a caller needs the materialized rows themselves.
//
// Driving a Dataset — operators and actions — is a single-goroutine (driver)
// activity: force mutates parts/stages without synchronization. Publish a
// dataset to concurrent readers only after Force.
type Dataset struct {
	ctx    *Context
	parts  [][]Row
	stages []stageFactory
	// hashes, when non-nil, parallels parts: hashes[i][j] is value.HashCols of
	// parts[i][j] over hashCols — the routing hashes the key-based shuffle
	// that built the dataset computed, or a placed input carried, kept so the
	// group table behind it does not hash the rows again. Only RepartitionBy
	// and FromPlaced set them, on a dataset with no pending stages; derived
	// datasets never inherit them.
	hashes   [][]uint64
	hashCols []int
	// cat, when non-nil, makes d a concatenation (Union): partition i's
	// source rows are parts[i] (none) followed by each cat dataset's rows of
	// partition i, streamed through that dataset's own chain. force copies
	// them out once; until then no row is copied.
	cat []*Dataset
	// err poisons the dataset after a partition task failed (memory cap or a
	// recovered panic): operators and actions keep returning it instead of
	// computing over partial data.
	err error
}

// FromRows cuts rows into Parallelism contiguous ranges, in order: partition
// i holds the i-th run of ⌈len/Parallelism⌉ rows. An exchange over the result
// hands each target its rows in input order, the order a stable placement
// (Placed) keeps.
func (c *Context) FromRows(rows []Row) *Dataset {
	n := c.Parallelism
	parts := make([][]Row, n)
	per := (len(rows) + n - 1) / n
	for i := range parts {
		lo := i * per
		hi := lo + per
		if lo > len(rows) {
			lo = len(rows)
		}
		if hi > len(rows) {
			hi = len(rows)
		}
		parts[i] = rows[lo:hi]
	}
	return &Dataset{ctx: c, parts: parts}
}

// Placed is rows hash-placed on columns Cols over len(Parts) partitions:
// Parts[i] holds, in input order, the rows whose value.HashCols over Cols is i
// modulo len(Parts) — where an exchange on Cols would route them — and
// Hashes[i] their hashes. A stable placement keeps each partition's rows in
// input order, so it holds what an exchange over FromRows of the rows would
// deliver, in the same order. It is immutable once built.
type Placed struct {
	Cols   []int
	Parts  [][]Row
	Hashes [][]uint64
}

// FromPlaced wraps placed rows, which must span Parallelism partitions, with
// their hashes: a Γ or join on pl.Cols reads them instead of hashing again.
// The dataset shares pl's slices and, like every input, never modifies them.
func (c *Context) FromPlaced(pl *Placed) *Dataset {
	return &Dataset{ctx: c, parts: pl.Parts, hashes: pl.Hashes, hashCols: pl.Cols}
}

// FromPartitions wraps pre-partitioned rows; used by tests and by operators.
func (c *Context) FromPartitions(parts [][]Row) *Dataset {
	return &Dataset{ctx: c, parts: parts}
}

// Empty returns an empty dataset with the context's parallelism.
func (c *Context) Empty() *Dataset {
	return &Dataset{ctx: c, parts: make([][]Row, c.Parallelism)}
}

// Context returns the engine context the dataset is bound to.
func (d *Dataset) Context() *Context { return d.ctx }

// NumPartitions returns the partition count (narrow operators never change
// it).
func (d *Dataset) NumPartitions() int { return len(d.parts) }

// withStage returns a new dataset with one more fused narrow operator. The
// stage slice is copied, never shared, so sibling datasets derived from the
// same parent cannot alias each other's chains.
func (d *Dataset) withStage(f stageFactory) *Dataset {
	stages := make([]stageFactory, len(d.stages)+1)
	copy(stages, d.stages)
	stages[len(d.stages)] = f
	return &Dataset{ctx: d.ctx, parts: d.parts, stages: stages, cat: d.cat, err: d.err}
}

// feed streams partition part through the fused operator chain into sink.
// This is the pipelined execution path: a row travels Map → Filter → … →
// sink without any intermediate partition ever being allocated.
func (d *Dataset) feed(part int, sink func(Row)) {
	emit := sink
	for i := len(d.stages) - 1; i >= 0; i-- {
		fn := d.stages[i](part)
		next := emit
		emit = func(r Row) { fn(r, next) }
	}
	for _, r := range d.parts[part] {
		emit(r)
	}
	for _, c := range d.cat {
		if part < len(c.parts) {
			c.feed(part, emit)
		}
	}
}

// sourceRows is the number of source rows partition part streams through
// the chain: a capacity hint for what the chain emits.
func (d *Dataset) sourceRows(part int) int {
	n := len(d.parts[part])
	for _, c := range d.cat {
		if part < len(c.parts) {
			n += c.sourceRows(part)
		}
	}
	return n
}

// YieldsNothing reports, without running a chain, that d yields no row and
// no failure: no partition holds a source row, and a fused chain emits
// nothing from nothing.
func (d *Dataset) YieldsNothing() bool {
	if d.err != nil {
		return false
	}
	for i := range d.parts {
		if d.sourceRows(i) > 0 {
			return false
		}
	}
	return true
}

// force runs the pending fused chain (in parallel over the worker pool) and
// caches the materialized partitions in place, returning (and recording) the
// first failure. Idempotent; a dataset with no pending stages is already
// materialized.
func (d *Dataset) force() error {
	if len(d.stages) == 0 && d.cat == nil {
		return d.err
	}
	parts := make([][]Row, len(d.parts))
	err := d.ctx.runParts(len(d.parts), func(i int) error {
		out := newRowBuilder(d.sourceRows(i))
		d.feed(i, out.add)
		parts[i] = out.rows()
		return nil
	})
	d.parts = parts
	d.stages, d.cat = nil, nil
	if err != nil && d.err == nil {
		d.err = err
	}
	return d.err
}

// Force materializes any pending fused stages in place and returns d. Wide
// operators and actions force automatically; callers that publish a dataset
// to concurrent readers, or that time a run, force explicitly first so no
// deferred work escapes them. Check Err afterwards: a recovered partition
// panic or memory-cap hit poisons the dataset instead of crashing.
func (d *Dataset) Force() *Dataset {
	d.force()
	return d
}

// Err reports the failure that poisoned the dataset, if any.
func (d *Dataset) Err() error { return d.err }

// Count returns the total number of rows, materializing pending stages.
func (d *Dataset) Count() int64 {
	d.force()
	var n int64
	for _, p := range d.parts {
		n += int64(len(p))
	}
	return n
}

// SizeBytes estimates the total materialized size.
func (d *Dataset) SizeBytes() int64 {
	d.force()
	var s int64
	for _, p := range d.parts {
		s += value.SizeRows(p)
	}
	return s
}

// Collect gathers all rows into one slice (driver-side action).
func (d *Dataset) Collect() []Row {
	d.force()
	out := make([]Row, 0, d.Count())
	for _, p := range d.parts {
		out = append(out, p...)
	}
	return out
}

// CollectSorted gathers all rows in the deterministic value order, for tests
// and reproducible output.
func (d *Dataset) CollectSorted() []Row {
	rows, _ := d.CollectTop(0)
	return rows
}

// ranked is a row with its position in Collect order, which breaks ties
// between rows that compare equal.
type ranked struct {
	row Row
	seq int
}

// CollectTop gathers the first k rows of the deterministic value order (all
// of them when k <= 0) beside the exact row count. With 0 < k < Count() it
// is one pass over the materialized partitions through a k-element heap
// instead of a sort of every row. Rows that compare equal (5 and 5.0, a bag
// in two element orders) rank by their Collect order either way, so the k
// rows are exactly the first k of CollectSorted.
func (d *Dataset) CollectTop(k int) (rows []Row, total int) {
	return d.CollectTopFunc(k, func(a, b Row) int { return value.CompareSeq(a, b) })
}

// CollectTopFunc is CollectTop in the order of cmp, rows that cmp finds equal
// ranking by their Collect order.
func (d *Dataset) CollectTopFunc(k int, cmp func(a, b Row) int) (rows []Row, total int) {
	compareRanked := func(a, b ranked) int {
		if c := cmp(a.row, b.row); c != 0 {
			return c
		}
		return a.seq - b.seq
	}
	total = int(d.Count())
	if k <= 0 || k > total {
		k = total
	}
	// h holds the k least rows seen so far; once it is full and rows remain,
	// as a max-heap: h[0] is the one the next smaller row evicts. A descending
	// slice is already such a heap.
	h := make([]ranked, 0, k)
	seq := 0
	for _, p := range d.parts {
		for _, r := range p {
			switch {
			case len(h) < k:
				if h = append(h, ranked{r, seq}); len(h) == k && k < total {
					slices.SortFunc(h, func(a, b ranked) int { return compareRanked(b, a) })
				}
			case cmp(r, h[0].row) < 0: // a tie loses to the earlier row
				h[0] = ranked{r, seq}
				for i := 0; ; {
					big := i
					for c := 2*i + 1; c <= 2*i+2 && c < k; c++ {
						if compareRanked(h[c], h[big]) > 0 {
							big = c
						}
					}
					if big == i {
						break
					}
					h[i], h[big] = h[big], h[i]
					i = big
				}
			}
			seq++
		}
	}
	slices.SortFunc(h, compareRanked)
	rows = make([]Row, k)
	for i, e := range h {
		rows[i] = e.row
	}
	return rows, total
}

// Map applies fn to every row. Narrow, fused, and lazy: nothing runs until a
// wide operator or action consumes the dataset. fn takes the rows it writes
// from the arena it is handed, one per partition task. Like every narrow
// operator it moves no row between partitions.
func (d *Dataset) Map(fn func(*Arena, Row) Row) *Dataset {
	return d.withStage(func(int) stageFn {
		a := new(Arena)
		return func(r Row, emit func(Row)) { emit(fn(a, r)) }
	})
}

// Filter keeps rows satisfying pred. Narrow, fused, lazy.
func (d *Dataset) Filter(pred func(Row) bool) *Dataset {
	return d.withStage(func(int) stageFn {
		return func(r Row, emit func(Row)) {
			if pred(r) {
				emit(r)
			}
		}
	})
}

// Split routes every row to one of two datasets in a single pass over the
// fused chain: the rows pred accepts, and the rest. Both keep d's partition
// layout. It is the pair Filter(pred), Filter(not pred) without running the
// chain, or pred, twice — and so, unlike Filter, it materializes.
func (d *Dataset) Split(pred func(Row) bool) (yes, no *Dataset) {
	yes = &Dataset{ctx: d.ctx, parts: make([][]Row, len(d.parts)), err: d.err}
	no = &Dataset{ctx: d.ctx, parts: make([][]Row, len(d.parts)), err: d.err}
	if d.err != nil {
		return yes, no
	}
	err := d.ctx.runParts(len(d.parts), func(i int) error {
		d.feed(i, func(r Row) {
			if pred(r) {
				yes.parts[i] = append(yes.parts[i], r)
			} else {
				no.parts[i] = append(no.parts[i], r)
			}
		})
		return nil
	})
	yes.err, no.err = err, err
	return yes, no
}

// FlatMap expands every row to zero or more rows. Narrow, fused, lazy. fn
// appends the rows it writes for r to out and returns it; like Map's, it
// takes them from the arena it is handed, and out is a slice it is handed
// again for the next row, both one per partition task.
func (d *Dataset) FlatMap(fn func(a *Arena, out []Row, r Row) []Row) *Dataset {
	return d.withStage(func(int) stageFn {
		a := new(Arena)
		var out []Row
		return func(r Row, emit func(Row)) {
			out = fn(a, out[:0], r)
			for _, o := range out {
				emit(o)
			}
		}
	})
}

// AddUniqueID appends a new column holding an ID unique across the dataset,
// without any shuffle: IDs combine the partition index and a per-partition
// sequence number, assigned by a fused stage whose counter is instantiated
// per partition per pass (so replays produce identical IDs). tag is or-ed into
// every ID, so datasets numbered under tags that differ in a bit above the
// partition field share no ID. This implements the unique-ID insertion
// performed by the outer-unnest operator of the paper.
func (d *Dataset) AddUniqueID(tag int64) *Dataset {
	return d.withStage(func(part int) stageFn {
		base := tag | int64(part)<<40
		var seq int64
		var a Arena
		return func(r Row, emit func(Row)) {
			nr := a.Row(len(r) + 1)
			copy(nr, r)
			nr[len(r)] = base | seq
			seq++
			emit(nr)
		}
	})
}

// Union is d's rows followed by o's, partition by partition: partition i
// holds d's partition i, then o's. It is narrow and lazy like Map — neither
// side's chain runs and no row is copied until the union is consumed, each
// side's rows streaming through its own chain — and a side that yields
// nothing is left out, so the union with an empty dataset is the other side
// itself, carried hashes and all.
func (d *Dataset) Union(o *Dataset) *Dataset {
	switch {
	case o.YieldsNothing():
		return d
	case d.YieldsNothing():
		return o
	}
	return &Dataset{ctx: d.ctx, parts: make([][]Row, max(len(d.parts), len(o.parts))), cat: []*Dataset{d, o}, err: errors.Join(d.err, o.err)}
}

// CheckMemory materializes pending stages and enforces the per-partition
// memory cap, recording the peak. Operators that materially expand data in
// place (flattening a nested collection) call it to model worker memory
// pressure outside shuffle boundaries.
func (d *Dataset) CheckMemory(stage string) error {
	return d.ctx.timeStage(stage, func() error {
		if err := d.force(); err != nil {
			return err
		}
		return d.ctx.checkPartitions(stage, d.parts)
	})
}
