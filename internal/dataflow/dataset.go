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
	// that built the dataset computed, kept so the group table behind it does
	// not hash the rows again. Only RepartitionBy sets them, on a dataset with
	// no pending stages; derived datasets never inherit them.
	hashes   [][]uint64
	hashCols []int
	// err poisons the dataset after a partition task failed (memory cap or a
	// recovered panic): operators and actions keep returning it instead of
	// computing over partial data.
	err error
}

// FromRows distributes rows round-robin over Parallelism partitions.
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
	return &Dataset{ctx: d.ctx, parts: d.parts, stages: stages, err: d.err}
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
}

// force runs the pending fused chain (in parallel over the worker pool) and
// caches the materialized partitions in place, returning (and recording) the
// first failure. Idempotent; a dataset with no pending stages is already
// materialized.
func (d *Dataset) force() error {
	if len(d.stages) == 0 {
		return d.err
	}
	parts := make([][]Row, len(d.parts))
	err := d.ctx.runParts(len(d.parts), func(i int) error {
		out := make([]Row, 0, len(d.parts[i]))
		d.feed(i, func(r Row) { out = append(out, r) })
		parts[i] = out
		return nil
	})
	d.parts = parts
	d.stages = nil
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

// FlatMap expands every row to zero or more rows. Narrow, fused, lazy.
func (d *Dataset) FlatMap(fn func(Row) []Row) *Dataset {
	return d.withStage(func(int) stageFn {
		return func(r Row, emit func(Row)) {
			for _, o := range fn(r) {
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

// Union concatenates two datasets partition-wise, with no shuffle. Both sides
// are materialized first so their fused chains are not cross-multiplied.
func (d *Dataset) Union(o *Dataset) *Dataset {
	d.force()
	o.force()
	n := len(d.parts)
	if len(o.parts) > n {
		n = len(o.parts)
	}
	parts := make([][]Row, n)
	for i := 0; i < n; i++ {
		var dp, op []Row
		if i < len(d.parts) {
			dp = d.parts[i]
		}
		if i < len(o.parts) {
			op = o.parts[i]
		}
		parts[i] = append(append(make([]Row, 0, len(dp)+len(op)), dp...), op...)
	}
	return &Dataset{ctx: d.ctx, parts: parts, err: errors.Join(d.err, o.err)}
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
