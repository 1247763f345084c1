package dataflow

import (
	"math/bits"
	"slices"

	"github.com/trance-go/trance/internal/value"
)

// groupTable interns composite keys as dense group ids in first-seen order.
// It is the one hash table behind Γ, join build and probe, and dedup:
// open-addressed over the 64-bit key hash (value.HashCols, the hash the keyed
// shuffle routes on), with collisions verified by value.EqualCols against the
// first row interned under the key — the AppendKey equality, so no key string
// is ever built. The zero value is an empty table over no columns.
type groupTable struct {
	slots []slot
	shift uint  // 64 - log2(len(slots))
	first []Row // per group, the first row interned under its key
	cols  []int // key columns of the rows in first
}

// slot holds a group id + 1 (0 marks an empty slot) next to the key hash, so a
// probe touches a row only on a full 64-bit hash match.
type slot struct {
	hash uint64
	id   uint32
}

// noGroup is the id of a row that belongs to no group: a NULL-keyed row on a
// join side, or a probe that found nothing.
const noGroup = ^uint32(0)

// newGroupTable returns a table over key columns cols with room for groups
// keys before it first grows.
func newGroupTable(cols []int, groups int) *groupTable {
	t := &groupTable{cols: cols, first: rowScratch.get(groups)[:0]}
	t.resize(2*groups + 8)
	return t
}

// resize rebuilds the slot array with at least n slots (a power of two) from
// the stored hashes: no key is re-hashed or re-compared. The old slots go back
// to the pool.
func (t *groupTable) resize(n int) {
	old := t.slots
	t.shift = uint(64 - bits.Len(uint(n-1)))
	t.slots = slotScratch.get(1 << (64 - t.shift))
	for _, s := range old {
		if s.id != 0 {
			i := t.home(s.hash)
			for t.slots[i].id != 0 {
				i = (i + 1) & (len(t.slots) - 1)
			}
			t.slots[i] = s
		}
	}
	slotScratch.put(old)
}

// home is the first slot probed for hash h. Every hash of one partition agrees
// on h mod Parallelism, so the slot comes from the high bits of a Fibonacci
// multiply, not from the low bits.
func (t *groupTable) home(h uint64) int {
	return int((h * 0x9E3779B97F4A7C15) >> t.shift)
}

// len is the number of distinct keys interned.
func (t *groupTable) len() int { return len(t.first) }

// intern returns the group id of r's key over the table's columns (whose hash
// is h), adding a group on first sight.
func (t *groupTable) intern(h uint64, r Row) uint32 {
	if 2*(len(t.first)+1) > len(t.slots) {
		t.resize(2 * len(t.slots)) // before probing: the load stays under a half
	}
	for i := t.home(h); ; i = (i + 1) & (len(t.slots) - 1) {
		s := &t.slots[i]
		if s.id == 0 {
			t.first = append(t.first, r)
			s.hash, s.id = h, uint32(len(t.first))
			return s.id - 1
		}
		if s.hash == h && value.EqualCols(t.first[s.id-1], t.cols, r, t.cols) {
			return s.id - 1
		}
	}
}

// find returns the group id of r's key over cols (whose hash is h), or
// noGroup. cols may differ from the table's own columns: a join probes the
// right side's keys with the left side's rows. It only reads the table, so
// concurrent probes are safe.
func (t *groupTable) find(h uint64, r Row, cols []int) uint32 {
	if len(t.slots) == 0 {
		return noGroup
	}
	for i := t.home(h); ; i = (i + 1) & (len(t.slots) - 1) {
		s := t.slots[i]
		if s.id == 0 {
			return noGroup
		}
		if s.hash == h && value.EqualCols(t.first[s.id-1], t.cols, r, cols) {
			return s.id - 1
		}
	}
}

// grouped is a set of rows placed group by group in one arena: group g is
// arena[off[g]:off[g+1]], its rows in arrival order. A group or a join match
// list is a sub-slice of the arena, never a slice grown per key.
type grouped struct {
	arena []Row
	off   []uint32
}

// place arranges rows by their group ids (one per row, noGroup rows are
// dropped): a count, a prefix sum and one stable placement pass.
func place(rows []Row, ids []uint32, groups int) grouped {
	// Counts go in at id+2 so that, after the prefix sum, off[id+1] is group
	// id's write cursor; once every row is placed it has advanced to the
	// group's end, which is the next group's start.
	off := idScratch.get(groups + 2)
	for _, id := range ids {
		if id != noGroup {
			off[id+2]++
		}
	}
	for g := 2; g < len(off); g++ {
		off[g] += off[g-1]
	}
	arena := rowScratch.get(int(off[groups+1]))
	for j, id := range ids {
		if id != noGroup {
			arena[off[id+1]] = rows[j]
			off[id+1]++
		}
	}
	return grouped{arena: arena, off: off[:groups+1]}
}

// group returns the rows of group id; noGroup, and any id of an empty
// grouping, has none.
func (g grouped) group(id uint32) []Row {
	if int(id)+1 >= len(g.off) {
		return nil
	}
	return g.arena[g.off[id]:g.off[id+1]]
}

// feedKeyed streams partition part through the fused chain like feed, handing
// sink every row with its key hash over cols: the routing hash the shuffle
// carried if the rows came through one on these columns, computed on the spot
// otherwise (a skipped shuffle with a pending chain, a broadcast probe).
func (d *Dataset) feedKeyed(part int, cols []int, sink func(Row, uint64)) {
	if d.hashes != nil && slices.Equal(d.hashCols, cols) {
		hashes := d.hashes[part]
		for j, r := range d.parts[part] {
			sink(r, hashes[j])
		}
		return
	}
	d.feed(part, func(r Row) { sink(r, value.HashCols(r, cols)) })
}

// groupPart groups partition part by its key over cols: the table of distinct
// keys in first-seen order and the rows placed under them. The first pass
// interns every row's key (materializing the rows here if a fused chain was
// pending); place is the second. With joinSide set, NULL-keyed rows are left
// out — they never match in a join. The caller releases both results.
func (d *Dataset) groupPart(part int, cols []int, joinSide bool) (*groupTable, grouped) {
	t := newGroupTable(cols, len(d.parts[part])/2)
	rows := d.parts[part]
	pending := len(d.stages) > 0
	if pending {
		rows = rowScratch.get(len(rows))[:0]
	}
	ids := idScratch.get(len(d.parts[part]))[:0]
	d.feedKeyed(part, cols, func(r Row, h uint64) {
		if pending {
			rows = append(rows, r)
		}
		if joinSide && anyNullCols(r, cols) {
			ids = append(ids, noGroup)
		} else {
			ids = append(ids, t.intern(h, r))
		}
	})
	g := place(rows, ids, t.len())
	idScratch.put(ids)
	if pending {
		rowScratch.put(rows)
	}
	return t, g
}

// Lookup indexes a dataset's rows by key at the driver, on the group table
// behind Γ, the joins and dedup: Find returns the rows under a key in Collect
// order. As on a join side, a row with a NULL key column is left out, so no
// probe finds it. Its table and placement are held as long as it is: they
// never go back to the pools.
type Lookup struct {
	t *groupTable
	g grouped
}

// Lookup builds the Lookup of d's rows keyed by cols.
func (d *Dataset) Lookup(cols []int) *Lookup {
	d.force()
	n := 0
	for _, p := range d.parts {
		n += len(p)
	}
	t := newGroupTable(cols, n/2)
	rows := rowScratch.get(n)[:0]
	ids := idScratch.get(n)[:0]
	for part := range d.parts {
		d.feedKeyed(part, cols, func(r Row, h uint64) {
			rows = append(rows, r)
			if anyNullCols(r, cols) {
				ids = append(ids, noGroup)
			} else {
				ids = append(ids, t.intern(h, r))
			}
		})
	}
	l := &Lookup{t: t, g: place(rows, ids, t.len())}
	rowScratch.put(rows)
	idScratch.put(ids)
	return l
}

// Find returns the number of the group whose key equals r's over cols (the
// probe's own columns, in the order of the Lookup's) and its rows, or -1 and
// no rows. Groups are numbered 0 to Len()-1.
func (l *Lookup) Find(r Row, cols []int) (int, []Row) {
	id := l.t.find(value.HashCols(r, cols), r, cols)
	if id == noGroup {
		return -1, nil
	}
	return int(id), l.g.group(id)
}

// Len is the number of distinct keys.
func (l *Lookup) Len() int { return l.t.len() }
