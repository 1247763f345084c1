package exec

import (
	"github.com/trance-go/trance/internal/dataflow"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/plan"
	"github.com/trance-go/trance/internal/value"
)

// presence returns the phantom test of a Γ: a row is a real contribution when
// none of its presence columns is NULL.
func presence(cols []int) func(dataflow.Row) bool {
	return func(r dataflow.Row) bool {
		for _, c := range cols {
			if r[c] == nil {
				return false
			}
		}
		return true
	}
}

// sumNest implements Γ+ (see nest). A NULL value contributes nothing; a group
// with real rows whose values are all NULL sums to zero. Int columns add in
// int64 (wrapping, so any grouping of the terms gives the same sum) and real
// columns into a value.RealSum, exact and rounded once per output row, so the
// result does not depend on how the rows are partitioned or ordered.
//
// A combined Γ+ (x.Combine) folds each group of a source partition into one
// partial row before the exchange: the group and carry columns of its first
// row, then per value column the partition's int64 sum or *value.RealSum
// (NULL while no real row was seen), then a presence flag, true when one
// was. The reduce side merges a group's partials into the output row.
func sumNest(in *dataflow.Dataset, x *plan.Nest, stage string, ns *plan.NodeStats) (*dataflow.Dataset, error) {
	inCols := x.In.Columns()
	width, nv := len(x.GroupCols)+len(x.CarryCols), len(x.ValueCols)
	isReal := make([]bool, nv)
	nreal := 0
	for i, c := range x.ValueCols {
		if t, ok := inCols[c].Type.(nrc.ScalarType); ok && t.Kind == nrc.Real {
			isReal[i] = true
			nreal++
		}
	}
	present := presence(x.PresenceCols)
	// head copies the group and carry columns of a group's first input row.
	head := func(dst, r dataflow.Row) {
		for i, c := range x.GroupCols {
			dst[i] = r[c]
		}
		for j, c := range x.CarryCols {
			dst[len(x.GroupCols)+j] = r[c]
		}
	}

	// reducer folds groups of input rows, or of partial rows when partials
	// is set, into output rows.
	reducer := func(partials bool) func(int, int) dataflow.Reducer {
		return func(_, ngroups int) dataflow.Reducer {
			a := newSumAcc(isReal)
			slab := make(dataflow.Slab, ngroups*(width+nv))
			return func(out, rows []dataflow.Row) []dataflow.Row {
				a.reset()
				for _, r := range rows {
					if partials {
						a.merge(r[width:])
					} else if present(r) {
						a.add(r, x.ValueCols)
					}
				}
				if !a.had && x.Mode == plan.ExplicitRoot {
					return out // drop a phantom-only group
				}
				nr := dataflow.Row(slab.Cut(width + nv))
				if partials {
					copy(nr, rows[0][:width])
				} else {
					head(nr, rows[0])
				}
				if a.had {
					a.result(nr[width:])
				} // else a marker row: the sums stay NULL
				return append(out, nr)
			}
		}
	}
	if !x.Combine {
		return in.GroupReduce(stage, x.GroupCols, x.Local != nil, nil, reducer(false))
	}
	combine := func(_, ngroups int) dataflow.Reducer {
		a := newSumAcc(isReal)
		slab := make(dataflow.Slab, ngroups*(width+nv+1))
		reals := make([]value.RealSum, 0, ngroups*nreal)
		return func(out, rows []dataflow.Row) []dataflow.Row {
			a.reset()
			for _, r := range rows {
				if present(r) {
					a.add(r, x.ValueCols)
				}
			}
			p := dataflow.Row(slab.Cut(width + nv + 1))
			head(p, rows[0])
			if a.had {
				for i := range nv {
					if isReal[i] {
						reals = append(reals, a.reals[i].Clone())
						r := &reals[len(reals)-1]
						r.Compact()
						p[width+i] = r
					} else {
						p[width+i] = a.ints[i]
					}
				}
				p[width+nv] = true
			}
			return append(out, p)
		}
	}
	return in.GroupReduce(stage, x.GroupCols, false, combiner(ns, combine, reducer(true)), reducer(false))
}

// sumAcc accumulates one group of a Γ+ at a time, unboxed: per value column
// an int64 or a value.RealSum, reused from group to group. The sum of a
// single term is the term itself, so the group's result reuses that term's
// box (a real one unless it is a zero, whose sum is +0).
type sumAcc struct {
	isReal []bool
	had    bool // a real row (or a present partial) was seen
	ints   []int64
	reals  []value.RealSum
	terms  []int         // per column, the terms added from input rows
	first  []value.Value // per column, the first of them
}

func newSumAcc(isReal []bool) *sumAcc {
	n := len(isReal)
	return &sumAcc{isReal: isReal, ints: make([]int64, n), reals: make([]value.RealSum, n), terms: make([]int, n), first: make([]value.Value, n)}
}

func (a *sumAcc) reset() {
	a.had = false
	clear(a.ints)
	clear(a.terms)
	for i := range a.reals {
		a.reals[i].Reset()
	}
}

// add adds the value columns cols of a real input row r.
func (a *sumAcc) add(r dataflow.Row, cols []int) {
	a.had = true
	for i, c := range cols {
		v := r[c]
		switch x := v.(type) {
		case nil: // a NULL contributes nothing
			continue
		case int64:
			if a.isReal[i] {
				a.reals[i].Add(float64(x))
			} else {
				a.ints[i] += x
			}
		case float64:
			a.reals[i].Add(x)
		}
		if a.terms[i] == 0 {
			a.first[i] = v
		}
		a.terms[i]++
	}
}

// merge adds a partial row's sums and presence flag (p starts at its first
// sum).
func (a *sumAcc) merge(p dataflow.Row) {
	if p[len(a.ints)] == nil {
		return // no real row in that partition's group
	}
	a.had = true
	for i, v := range p[:len(a.ints)] {
		if a.isReal[i] {
			a.reals[i].Merge(v.(*value.RealSum))
		} else {
			a.ints[i] += v.(int64)
		}
	}
}

// result writes the group's sums, each real one rounded once.
func (a *sumAcc) result(dst dataflow.Row) {
	for i := range a.ints {
		switch f, isFloat := a.first[i].(float64); {
		case a.terms[i] == 1 && (!a.isReal[i] || isFloat && f != 0):
			dst[i] = a.first[i]
		case a.isReal[i]:
			dst[i] = a.reals[i].Float64()
		default:
			dst[i] = a.ints[i]
		}
	}
}
