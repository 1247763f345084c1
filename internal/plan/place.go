package plan

import "slices"

// Place is the placement pass (docs/OPTIMIZER.md, "Placement"), run last on
// every statement of every strategy but the SparkSQL-style baseline. It
// derives bottom-up where every operator's output rows lie — hash-placed on
// columns K (each row where an exchange on K would route it, which a join side
// needs to line up with the other side) and co-located on column sets (rows
// equal on one share a partition, all a Γ or dedup needs) — and from that
// decides every exchange the plan holds: a join side or BagToDict already
// placed on its key is Placed, and a Γ/dedup is Local when its input is placed
// on its key or its key determines a co-located set (idDeps). A Γ feeding a
// join side on exactly its key keeps its exchange, whose placement lets the
// join skip its own. Place returns the placed plan, which the executor
// follows, and where the dataset it yields lies. The input plan is not mutated.
func Place(op Op, opts PlaceOptions) (Op, []int) {
	out, p := placer(opts).place(op, nil)
	return out, p.merged()
}

// PlaceOptions is what Place knows of a run besides its plan.
type PlaceOptions struct {
	// SkewAware: the plan runs over the skew-triples of paper Section 5.
	SkewAware bool
	// NoBroadcast: a join without a Cost shuffles — with a broadcast limit of
	// 0 the executor's size heuristic never broadcasts.
	NoBroadcast bool
	// Bound holds the hash placement of the datasets earlier statements left
	// under a name; a Scan of any other name is placed nowhere.
	Bound map[string][]int
}

type placer PlaceOptions

// placement is where the rows of an operator's output lie.
type placement struct {
	sets [][]int // co-located column sets
	hash []int   // the (light) rows are hash-placed on these columns; nil: not
	// Under skew, apart reports that the heavy rows of a skew-triple — left
	// where they lay when the light/heavy split was made — may lie elsewhere
	// than hash says, and keyed lists the columns the heavy keys are known
	// over: a skew join or BagToDict keyed by them reuses the split, any other
	// merges the components and splits them anew.
	apart bool
	keyed []int
}

// merged is the hash placement of both components together.
func (p placement) merged() []int {
	if p.apart {
		return nil
	}
	return p.hash
}

// place marks op's subtree and returns it with where its output lies. hashed
// is the key a join side above would find op's output hash-placed on and skip
// its exchange for, nil for none.
func (pl placer) place(op Op, hashed []int) (Op, placement) {
	ch := op.Children()
	if len(ch) == 0 {
		if s, ok := op.(*Scan); ok {
			return op, placement{hash: pl.Bound[s.Input]}
		}
		return op, placement{}
	}
	kids := make([]Op, len(ch))
	ins := make([]placement, len(ch))
	for i, c := range ch {
		var h []int
		switch x := op.(type) {
		case *Select, *Extend, *AddIndex:
			h = hashed // each keeps a hash placement in place
		case *Join:
			h = [][]int{x.LCols, x.RCols}[i]
		}
		kids[i], ins[i] = pl.place(c, h)
	}
	in := ins[0]
	switch x := withChildren(op, kids...).(type) {
	case *Select:
		// σ̄ makes rows equal on what it nullifies, and sets a NULL where the
		// hash read a value: a set or placement with such a column is lost.
		nullified := func(s []int) bool {
			return slices.ContainsFunc(s, func(c int) bool { return slices.Contains(x.NullifyCols, c) })
		}
		in.sets = slices.DeleteFunc(in.sets, nullified)
		if nullified(in.hash) {
			in.hash = nil
		}
		return x, in
	case *Extend:
		return x, in
	case *AddIndex:
		in.sets = append(in.sets, []int{len(x.In.Columns())})
		return x, in
	case *Project:
		out := in.through(copySources(x.Outs))
		out.keyed = nil // a π forgets the heavy keys
		return x, out
	case *Unnest:
		// The tombstoned bag is NULL on every row, so it is no copy.
		width := len(x.In.Columns())
		src := make([]int, len(x.Columns()))
		for i := range src {
			if src[i] = x.Full(i); src[i] >= width || src[i] == x.BagCol {
				src[i] = -1
			}
		}
		return x, in.through(src)
	case *Join:
		return x, pl.join(x, in, ins[1])
	case *Nest:
		// x is withChildren's copy: the mark is set on it, never on op.
		key := positions(len(x.GroupCols))
		out := placement{sets: [][]int{key}, hash: key}
		x.Local = nil
		if m := in.merged(); m != nil && slices.Equal(m, x.GroupCols) {
			// Every group lies where an exchange on the key would put it.
			x.Local = x.GroupCols
		} else if len(hashed) == 0 || !slices.Equal(hashed, key) {
			// The mark names the latest set within the key, else the latest
			// set the key determines.
			deps, within := idDepsOf(x.In), func(s []int) bool { return determines(x.GroupCols, s, nil) }
			for i := len(in.sets) - 1; i >= 0; i-- {
				if determines(x.GroupCols, in.sets[i], deps) && (x.Local == nil || !within(x.Local) && within(in.sets[i])) {
					x.Local = in.sets[i]
				}
			}
			if x.Local != nil {
				out.hash = nil
			}
		}
		if x.Local != nil {
			out.sets = append(through(in.sets, x.passed()), key)
		}
		return x, out
	case *DedupOp:
		// Every set is determined by the whole-row key.
		all := positions(len(x.Columns()))
		out := placement{sets: append(in.sets, all), hash: all}
		x.Local = nil
		if m := in.merged(); m != nil && slices.Equal(m, all) {
			x.Local = all
		} else if len(in.sets) > 0 {
			x.Local, out.hash = in.sets[len(in.sets)-1], nil
		}
		return x, out
	case *BagToDict:
		// Under skew the light labels are split off anew from both components,
		// unless the heavy keys are known over the label already.
		label := []int{x.LabelCol}
		x.KeepSplit = slices.Equal(in.keyed, label)
		x.Placed = slices.Equal(in.merged(), label) || x.KeepSplit && slices.Equal(in.hash, label)
		out := placement{hash: label}
		if pl.SkewAware {
			// The heavy labels stay where the split left them.
			out.apart, out.keyed = !slices.Equal(in.merged(), label), label
		}
		return x, out
	default:
		return x, placement{}
	}
}

// through is p for an output whose column i copies input column src[i]
// (negative: not a copy).
func (p placement) through(src []int) placement {
	return placement{sets: through(p.sets, src), hash: moved(p.hash, src), apart: p.apart, keyed: moved(p.keyed, src)}
}

// join marks x's sides and returns where its output lies, given where its
// left (l) and right (r) inputs lie.
func (pl placer) join(x *Join, l, r placement) placement {
	keyed := len(x.LCols) > 0
	skew := pl.SkewAware && keyed
	x.KeepSplit = skew && slices.Equal(l.keyed, x.LCols)
	lhash := l.hash
	if skew && !x.KeepSplit {
		lhash = l.merged() // the left components are merged to be split anew
	}
	// A side may exchange unless the cost model chose broadcast: a join
	// without a Cost decides at run time, by size, unless nothing broadcasts.
	exchanges := keyed && (x.Cost == nil || x.Cost.Method == JoinShuffle)
	x.Placed = [2]bool{
		exchanges && slices.Equal(lhash, x.LCols),
		exchanges && slices.Equal(r.merged(), x.RCols),
	}
	out := placement{apart: l.apart, keyed: l.keyed}
	switch {
	case !exchanges:
		out.hash = lhash // the left rows stay where they are
	case x.Cost != nil || pl.NoBroadcast || x.Placed[0]:
		out.hash = x.LCols // an exchange on LCols puts them there, if they are not already
	}
	if skew {
		// The skew arm broadcasts the matches of the heavy rows to where they
		// lie, which is where they lay in the input, merged or not.
		out.apart, out.keyed = !slices.Equal(out.hash, l.merged()), x.LCols
	}

	// Co-located sets: a broadcast join, and the skew arm's heavy rows, leave
	// the left rows in place; otherwise they hash by LCols, which a set must
	// determine.
	out.sets = l.sets
	if x.Cost == nil || x.Cost.Method != JoinBroadcast {
		deps := idDepsOf(x.L)
		out.sets = slices.DeleteFunc(out.sets, func(s []int) bool { return !determines(s, x.LCols, deps) })
	}
	// Under skew a heavy key's rows stay spread.
	if !pl.SkewAware && keyed && x.Cost != nil && x.Cost.Method == JoinShuffle {
		out.sets = append(out.sets, x.LCols)
	}
	if x.Outs != nil {
		out = out.through(copySources(x.Outs))
	}
	return out
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
	for _, s := range sets {
		if m := moved(s, src); m != nil {
			out = append(out, m)
		}
	}
	return out
}

// moved is where such an output holds the columns cols, nil when it does not
// copy one of them (or cols is nil).
func moved(cols, src []int) []int {
	if cols == nil {
		return nil
	}
	m := make([]int, len(cols))
	for j, c := range cols {
		if m[j] = slices.Index(src, c); m[j] < 0 {
			return nil
		}
	}
	return m
}

// positions is [0, n).
func positions(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
