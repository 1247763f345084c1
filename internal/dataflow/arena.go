package dataflow

import "github.com/trance-go/trance/internal/value"

// Slab is a run of value cells handed out in pieces: an operator that knows
// how many cells a partition's output takes makes one of exactly that size.
type Slab []value.Value

// Cut takes the next n cells, with capacity n so that an append to the piece
// can never run into its neighbour.
func (s *Slab) Cut(n int) []value.Value {
	piece := (*s)[:n:n]
	*s = (*s)[n:]
	return piece
}

// Arena hands one partition task the rows it writes when their number is not
// known up front, cut from slabs it allocates as it goes: the narrow operators
// and the join probe take a row per output row from it instead of allocating
// each. Chunks grow geometrically from arenaFirstRows rows to arenaMaxRows, so
// a point lookup does not pay for a full chunk, and a row that outlives its
// neighbours (a top-k survivor, a filtered chain) pins at most one chunk of
// arenaMaxRows rows. The zero value is ready to use; an Arena is not safe for
// concurrent use — every stage instance and join task owns its own.
type Arena struct {
	free Slab
	rows int // rows the current chunk was sized for
}

const (
	arenaFirstRows = 4
	arenaMaxRows   = 256
)

// Row returns a NULL-filled row of n cells.
func (a *Arena) Row(n int) Row {
	if len(a.free) < n {
		a.rows = min(max(2*a.rows, arenaFirstRows), arenaMaxRows)
		a.free = make(Slab, n*a.rows)
	}
	return a.free.Cut(n)
}
