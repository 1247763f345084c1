package dataflow

import (
	"math/bits"
	"sync"
)

// Scratch is what a wide operator makes for itself and drops within one
// request: group-table slots and first lists, group ids, placement offsets and
// arenas, exchange buffers, and the shuffled partitions and carried hashes it
// consumes. The collector is paced by bytes allocated, and these are most of
// them, so they are recycled through pools keyed by power-of-two size class.
//
// An operator releases only buffers it made and is done with, never its input:
// a placed side or a local Γ reads the caller's partitions, and those stay as
// they are. A Lookup keeps its buffers for as long as it is held.
var (
	slotScratch scratch[slot]   // groupTable slots
	idScratch   scratch[uint32] // group ids and placement offsets
	hashScratch scratch[uint64] // routing hashes
	rowScratch  scratch[Row]    // row buffers: first lists, arenas, partitions
)

// scratchMin is the smallest buffer worth a pool round trip; get makes, and put
// drops, anything shorter.
const scratchMin = 16

// scratch recycles buffers of one element type. Class c holds buffers of
// capacity 1<<c.
type scratch[T any] struct{ classes [bits.UintSize]sync.Pool }

// get returns a zeroed buffer of length n, as make([]T, n) would, from the
// pool when one of n's class is there.
func (s *scratch[T]) get(n int) []T {
	if n < scratchMin {
		return make([]T, n)
	}
	c := bits.Len(uint(n - 1))
	if b, ok := s.classes[c].Get().(*[]T); ok {
		return (*b)[:n]
	}
	return make([]T, n, 1<<c)
}

// put releases b, which no one may use afterwards; its length must cover
// every element written. Those are cleared, so a pooled buffer pins no row and
// the next get finds it zeroed; capacity past the length is left untouched, so
// a fresh tail stays unfaulted. Only a buffer get made is kept: one grown by
// append, or made elsewhere, would file under a class no get of its size asks
// for, and such buffers pile up in the pool until a collection, which counts
// them as live.
func (s *scratch[T]) put(b []T) {
	if cap(b) < scratchMin || cap(b)&(cap(b)-1) != 0 {
		return
	}
	clear(b)
	s.classes[bits.Len(uint(cap(b)))-1].Put(&b)
}

// release returns the table's slots and first list to the pools.
func (t *groupTable) release() {
	slotScratch.put(t.slots)
	rowScratch.put(t.first)
	*t = groupTable{}
}

// release returns the placement's arena and offsets to the pools.
func (g grouped) release() {
	rowScratch.put(g.arena)
	idScratch.put(g.off[:len(g.off)+1]) // place wrote one offset more
}

// release returns the build side's table and placement to the pools.
func (b *joinTable) release() {
	if b.keys != nil {
		b.keys.release()
		b.rows.release()
	}
}

// releasePart returns partition i and its carried hashes to the pools. Only
// the operator that made d for its own use (a shuffled input) may call it,
// once it is done with the partition.
func (d *Dataset) releasePart(i int) {
	rowScratch.put(d.parts[i])
	d.parts[i] = nil
	if d.hashes != nil {
		hashScratch.put(d.hashes[i])
		d.hashes[i] = nil
	}
}

// rowBuilder gathers the rows one partition task writes in a pooled buffer
// that moves up a size class when full, so a task that writes more rows than
// it reads — an unnest, a fanning-out join — grows no slice by append, and
// keeps an exact-size copy of them (rows).
type rowBuilder struct{ buf []Row }

// newRowBuilder starts a builder sized for about hint rows.
func newRowBuilder(hint int) *rowBuilder {
	return &rowBuilder{buf: rowScratch.get(max(hint, scratchMin))[:0]}
}

func (b *rowBuilder) add(r Row) {
	if len(b.buf) == cap(b.buf) {
		next := rowScratch.get(2 * cap(b.buf))[:len(b.buf)]
		copy(next, b.buf)
		rowScratch.put(b.buf)
		b.buf = next
	}
	b.buf = append(b.buf, r)
}

// rows returns the rows added, in an exact-size slice, and the buffer to the
// pool: the builder is not used again.
func (b *rowBuilder) rows() []Row {
	out := make([]Row, len(b.buf))
	copy(out, b.buf)
	rowScratch.put(b.buf)
	b.buf = nil
	return out
}
