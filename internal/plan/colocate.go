package plan

import "slices"

// Colocate is the co-location pass (docs/OPTIMIZER.md, "Co-location"), run
// last on every statement of every strategy but the SparkSQL-style baseline. A
// set of columns is co-located when any two rows equal on it lie in the same
// partition — weaker than a hash placement (dataflow.Partitioner), which a
// join needs so that its sides line up, but all a Γ or dedup needs. Colocate
// derives the co-located sets of every output bottom-up (addIndex, exchanged
// Γ/dedup and, unless skewAware, shuffle joins create them; column copies
// carry them; the left side of a join keeps those that determine its key, or
// all when it broadcasts) and marks (Local) each Γ/dedup whose key determines
// one — each of its columns is a key column or depends on an ID in the key
// (idDeps) — to reduce where its rows lie, with no exchange. A Γ feeding a
// join side on exactly its key keeps its exchange: the hash placement it
// leaves lets the join skip its own. The input plan is not mutated.
func Colocate(op Op, skewAware bool) Op {
	out, _ := colocate(op, nil, skewAware)
	return out
}

// colocate marks op's subtree and returns it with the co-located sets of its
// output, as column lists. hashed is the key a join side above would find op's
// output hash-placed on and skip its exchange for, nil for none.
func colocate(op Op, hashed []int, skewAware bool) (Op, [][]int) {
	ch := op.Children()
	if len(ch) == 0 {
		return op, nil
	}
	kids := make([]Op, len(ch))
	var in [][]int // the sets of the (left) input
	for i, c := range ch {
		var h []int
		switch x := op.(type) {
		case *Select, *Extend, *AddIndex:
			h = hashed // each keeps a hash placement in place
		case *Join:
			h = [][]int{x.LCols, x.RCols}[i]
		}
		var sets [][]int
		if kids[i], sets = colocate(c, h, skewAware); i == 0 {
			in = sets
		}
	}
	switch x := withChildren(op, kids).(type) {
	case *Select:
		// σ̄ makes rows equal on what it nullifies: a set with it is lost.
		return x, slices.DeleteFunc(in, func(s []int) bool {
			return slices.ContainsFunc(s, func(c int) bool { return slices.Contains(x.NullifyCols, c) })
		})
	case *Extend:
		return x, in
	case *AddIndex:
		return x, append(in, []int{len(x.In.Columns())})
	case *Project:
		return x, through(in, copySources(x.Outs))
	case *Unnest:
		// The tombstoned bag is NULL on every row, so it is no copy.
		width := len(x.In.Columns())
		src := make([]int, len(x.Columns()))
		for i := range src {
			if src[i] = x.Full(i); src[i] >= width || src[i] == x.BagCol {
				src[i] = -1
			}
		}
		return x, through(in, src)
	case *Join:
		// A broadcast join, and the skew arm's heavy rows, leave the left rows
		// in place; otherwise they hash by LCols, which a set must determine.
		if x.Cost == nil || x.Cost.Method != JoinBroadcast {
			deps := idDepsOf(x.L)
			in = slices.DeleteFunc(in, func(s []int) bool { return !determines(s, x.LCols, deps) })
		}
		// Under skew a heavy key's rows stay spread.
		if !skewAware && len(x.LCols) > 0 && x.Cost != nil && x.Cost.Method == JoinShuffle {
			in = append(in, x.LCols)
		}
		if x.Outs != nil {
			in = through(in, copySources(x.Outs))
		}
		return x, in
	case *Nest:
		// x is withChildren's copy: the mark is set on it, never on op.
		key := positions(len(x.GroupCols))
		x.Local = nil
		if len(hashed) == 0 || !slices.Equal(hashed, key) {
			// The mark names the latest set within the key, else the latest
			// set the key determines.
			deps, within := idDepsOf(x.In), func(s []int) bool { return determines(x.GroupCols, s, nil) }
			for i := len(in) - 1; i >= 0; i-- {
				if determines(x.GroupCols, in[i], deps) && (x.Local == nil || !within(x.Local) && within(in[i])) {
					x.Local = in[i]
				}
			}
		}
		if x.Local == nil {
			return x, [][]int{key}
		}
		return x, append(through(in, x.passed()), key)
	case *DedupOp:
		// Every set is determined by the whole-row key.
		if x.Local = nil; len(in) > 0 {
			x.Local = in[len(in)-1]
		}
		return x, append(in, positions(len(x.Columns())))
	default:
		return x, nil
	}
}

// determines reports whether rows equal on by are equal on every column of
// cols: each is one of by or depends on an ID that is (nil deps: none does).
func determines(by, cols []int, deps idDeps) bool {
	for _, c := range cols {
		if !slices.Contains(by, c) && (deps == nil || !slices.ContainsFunc(deps[c], func(id int) bool { return slices.Contains(by, id) })) {
			return false
		}
	}
	return true
}

// through is the sets of an output whose column i copies input column src[i]
// (negative: not a copy). A set with a column no output copies is lost.
func through(sets [][]int, src []int) (out [][]int) {
next:
	for _, s := range sets {
		m := make([]int, len(s))
		for j, c := range s {
			if m[j] = slices.Index(src, c); m[j] < 0 {
				continue next
			}
		}
		out = append(out, m)
	}
	return out
}

// positions is [0, n).
func positions(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
