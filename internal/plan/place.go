package plan

import "slices"

// Place is the placement pass (docs/OPTIMIZER.md, "Placement"), run last on
// every statement of every strategy but the SparkSQL-style baseline. It
// derives bottom-up where every operator's output rows lie — hash-placed on
// each of a set of keys K (each row where an exchange on K would route it,
// which a join side needs to line up with the other side) and co-located on
// column sets (rows equal on one share a partition, all a Γ or dedup needs) —
// and from that decides every exchange the plan holds: a join side or
// BagToDict placed on its key is Placed, a join with both sides placed moves
// nothing and never broadcasts, and a Γ/dedup is Local when its input is
// placed on its key or its key determines a co-located set (idDeps); a Γ+ or
// dedup that still exchanges is Combined on its source partitions first. A
// Scan of a Bound name is marked with, and lies, where Bound says. A Γ feeding
// a join side on exactly its key keeps its exchange, whose placement lets the
// join skip its own. Place returns the placed plan, which the executor
// follows, and the keys the dataset it yields is hash-placed on. The input
// plan is not mutated.
func Place(op Op, opts PlaceOptions) (Op, [][]int) {
	out, p := placer{opts, Schemas{}}.place(op, nil)
	return out, p.merged()
}

// PlaceOptions is what Place knows of a run besides its plan.
type PlaceOptions struct {
	// SkewAware: the plan runs over the skew-triples of paper Section 5.
	SkewAware bool
	// NoBroadcast: a join without a Cost shuffles — with a broadcast limit of
	// 0 the executor's size heuristic never broadcasts.
	NoBroadcast bool
	// Bound holds the hash placement of the datasets a Scan may read — the
	// inputs bound placed, and those earlier statements left under a name —
	// as the keys each is hash-placed on: a value-shredded input component
	// lies on every label column it has, root-aligned. A Scan of any other
	// name is placed nowhere. Rows hash-placed on K share a partition when
	// they are equal on K, so a placed Scan is co-located on each K too.
	Bound map[string][][]int
}

// placer is one Place pass: its options and its memo of the schemas.
type placer struct {
	PlaceOptions
	cols Schemas
}

// placement is where the rows of an operator's output lie.
type placement struct {
	sets [][]int // co-located column sets
	keys [][]int // the (light) rows are hash-placed on each of these; nil: none
	// Under skew, apart reports that the heavy rows of a skew-triple — left
	// where they lay when the light/heavy split was made — may lie elsewhere
	// than keys say, and keyed lists the columns the heavy keys are known
	// over: a skew join or BagToDict keyed by them reuses the split, any other
	// merges the components and splits them anew.
	apart bool
	keyed []int
}

// merged is the hash placement of both components together.
func (p placement) merged() [][]int {
	if p.apart {
		return nil
	}
	return p.keys
}

// place marks op's subtree and returns it with where its output lies. hashed
// is the key a join side above would find op's output hash-placed on and skip
// its exchange for, nil for none.
func (pl placer) place(op Op, hashed []int) (Op, placement) {
	ch := op.Children()
	if len(ch) == 0 {
		s, ok := op.(*Scan)
		if !ok {
			return op, placement{}
		}
		h := pl.Bound[s.Input]
		if len(h) == 0 {
			h = nil
		}
		if !keysEqual(s.Placed, h) || (s.Placed == nil) != (h == nil) {
			s = cloneWith(s, func(c *Scan) { c.Placed = h })
		}
		return s, placement{sets: h, keys: h}
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
		// hash read a value: a set or key with such a column is lost.
		nullified := func(s []int) bool {
			return slices.ContainsFunc(s, func(c int) bool { return slices.Contains(x.NullifyCols, c) })
		}
		in.sets = slices.DeleteFunc(slices.Clone(in.sets), nullified)
		in.keys = slices.DeleteFunc(slices.Clone(in.keys), nullified)
		return x, in
	case *Extend:
		return x, in
	case *AddIndex:
		in.sets = append(slices.Clone(in.sets), []int{len(pl.cols.Of(x.In))})
		return x, in
	case *Project:
		out := in.through(copySources(x.Outs))
		out.keyed = nil // a π forgets the heavy keys
		return x, out
	case *Unnest:
		// The tombstoned bag is NULL on every row, so it is no copy.
		width := len(pl.cols.Of(x.In))
		src := make([]int, len(pl.cols.Of(x)))
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
		out := placement{sets: [][]int{key}, keys: [][]int{key}}
		x.Local = nil
		if m := in.merged(); on(m, x.GroupCols) {
			// Every group lies where an exchange on the key would put it.
			x.Local = x.GroupCols
		} else if len(hashed) == 0 || !slices.Equal(hashed, key) {
			// The mark names the latest set within the key, else the latest
			// set the key determines.
			deps, within := idDepsOf(x.In, pl.cols), func(s []int) bool { return determines(x.GroupCols, s, nil) }
			for i := len(in.sets) - 1; i >= 0; i-- {
				if determines(x.GroupCols, in.sets[i], deps) && (x.Local == nil || !within(x.Local) && within(in.sets[i])) {
					x.Local = in.sets[i]
				}
			}
			if x.Local != nil {
				out.keys = nil
			}
		}
		if x.Local != nil {
			// Each output row lies where its group's rows did, and copies
			// their key and carried columns.
			out.sets = append(through(in.sets, x.passed()), key)
			out.keys = withKeys(out.keys, through(in.merged(), x.passed())...)
		}
		x.Combine = x.Local == nil && x.Agg == AggSum
		return x, out
	case *DedupOp:
		// Every set is determined by the whole-row key.
		all := positions(len(pl.cols.Of(x)))
		out := placement{sets: append(slices.Clone(in.sets), all), keys: [][]int{all}}
		x.Local = nil
		if m := in.merged(); on(m, all) {
			x.Local, out.keys = all, m
		} else if len(in.sets) > 0 {
			// The rows kept lie where they were.
			x.Local, out.keys = in.sets[len(in.sets)-1], m
		}
		x.Combine = x.Local == nil
		return x, out
	case *BagToDict:
		// Under skew the light labels are split off anew from both components,
		// unless the heavy keys are known over the label already.
		label := []int{x.LabelCol}
		x.KeepSplit = slices.Equal(in.keyed, label)
		x.Placed = on(in.merged(), label) || x.KeepSplit && on(in.keys, label)
		out := placement{keys: [][]int{label}}
		if pl.SkewAware {
			// The heavy labels stay where the split left them.
			out.apart, out.keyed = !on(in.merged(), label), label
		}
		return x, out
	default:
		return x, placement{}
	}
}

// through is p for an output whose column i copies input column src[i]
// (negative: not a copy).
func (p placement) through(src []int) placement {
	return placement{sets: through(p.sets, src), keys: through(p.keys, src), apart: p.apart, keyed: moved(p.keyed, src)}
}

// join marks x's sides and returns where its output lies, given where its
// left (l) and right (r) inputs lie.
func (pl placer) join(x *Join, l, r placement) placement {
	keyed := len(x.LCols) > 0
	// A join whose sides both lie placed on its key moves nothing: each
	// partition joins its own rows, whatever the cost model or the size rule
	// would pick, and a skew-aware run splits nothing.
	local := keyed && on(l.merged(), x.LCols) && on(r.merged(), x.RCols)
	// A priced broadcast whose left side lies placed on the key shuffles the
	// right side instead: that moves it once, a broadcast once per partition.
	// Placed again where the left side no longer lies so, it broadcasts as
	// the cost model chose.
	lplaced := keyed && on(l.merged(), x.LCols)
	switch {
	case x.Cost != nil && x.Cost.Method == JoinBroadcast && lplaced:
		x.Cost = reprice(x.Cost, JoinShuffle)
	case x.Cost != nil && x.Cost.Repriced && !lplaced:
		x.Cost = reprice(x.Cost, JoinBroadcast)
	}
	// A join the cost model broadcasts is the plain join under skew too: a
	// broadcast leaves every left row where it lies, heavy key or not. One
	// without a Cost decides at run time, by size, unless nothing broadcasts.
	broadcast := !keyed || x.Cost != nil && x.Cost.Method == JoinBroadcast
	undecided := keyed && x.Cost == nil && !pl.NoBroadcast && !local
	skew := pl.SkewAware && !broadcast && !local
	x.KeepSplit = skew && slices.Equal(l.keyed, x.LCols)
	lkeys := l.keys
	if skew && !x.KeepSplit {
		lkeys = l.merged() // the left components are merged to be split anew
	}
	x.Placed = [2]bool{
		!broadcast && on(lkeys, x.LCols),
		!broadcast && on(r.merged(), x.RCols),
	}
	// The keys of the right side hold on the output where its rows stayed
	// put and every output row has one: an inner join, not split on skew.
	var rkeys, rsets [][]int
	if lw := len(pl.cols.Of(x.L)); !x.Outer && !skew {
		rkeys, rsets = shift(r.merged(), lw), shift(r.sets, lw)
	}
	out := placement{apart: l.apart, keyed: l.keyed}
	// Where a shuffle join leaves its rows: on LCols, and on the keys of each
	// side that stayed put while the other moved onto its placement.
	shuffled := [][]int{x.LCols}
	if x.Placed[0] {
		shuffled = lkeys
	}
	if x.Placed[1] {
		shuffled = withKeys(shuffled, rkeys...)
	}
	switch {
	case broadcast:
		out.keys = lkeys // the left rows stay where they are
	case undecided:
		out.keys = common(lkeys, shuffled) // as the size rule decides at run time
	default:
		out.keys = shuffled
	}
	if skew {
		// The skew arm broadcasts the matches of the heavy rows to where they
		// lie, which is where they lay in the input, merged or not. A join the
		// size rule may yet broadcast keeps its left's split instead: the heavy
		// keys are known over LCols only if that split was made on them.
		out.apart, out.keyed = !subset(out.keys, l.merged()), x.LCols
		if undecided && !x.KeepSplit {
			out.keyed = nil
		}
	}

	// Co-located sets: a broadcast join, a placed left side and the skew
	// arm's heavy rows leave the left rows in place; otherwise they hash by
	// LCols, which a set must determine.
	out.sets = l.sets
	if !broadcast && !x.Placed[0] {
		deps := idDepsOf(x.L, pl.cols)
		out.sets = slices.DeleteFunc(slices.Clone(out.sets), func(s []int) bool { return !determines(s, x.LCols, deps) })
	}
	if x.Placed[1] && !undecided {
		out.sets = append(slices.Clone(out.sets), rsets...)
	}
	// Under skew a heavy key's rows stay spread.
	if keyed && (local || !pl.SkewAware && x.Cost != nil && x.Cost.Method == JoinShuffle) {
		out.sets = append(slices.Clone(out.sets), x.LCols)
	}
	if x.Outs != nil {
		out = out.through(copySources(x.Outs))
	}
	return out
}

// reprice is c with method m, Repriced when Place made it a shuffle.
func reprice(c *Costs, m JoinMethod) *Costs {
	d := *c
	d.Method, d.Repriced = m, m == JoinShuffle
	return &d
}

// on reports whether key is one of keys.
func on(keys [][]int, key []int) bool {
	return slices.ContainsFunc(keys, func(k []int) bool { return slices.Equal(k, key) })
}

// withKeys is keys with more added, each once.
func withKeys(keys [][]int, more ...[]int) [][]int {
	for _, k := range more {
		if !on(keys, k) {
			keys = append(slices.Clone(keys), k)
		}
	}
	return keys
}

// common is the keys of a that are keys of b too.
func common(a, b [][]int) [][]int {
	var out [][]int
	for _, k := range a {
		if on(b, k) {
			out = append(out, k)
		}
	}
	return out
}

// subset reports whether every key of a is one of b.
func subset(a, b [][]int) bool { return len(common(a, b)) == len(a) }

// keysEqual reports whether a and b are the same list of keys.
func keysEqual(a, b [][]int) bool { return slices.EqualFunc(a, b, slices.Equal) }

// shift is cols, each column moved by n: a right side's columns in L ++ R.
func shift(cols [][]int, n int) [][]int {
	out := make([][]int, len(cols))
	for i, c := range cols {
		out[i] = make([]int, len(c))
		for j, x := range c {
			out[i][j] = x + n
		}
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
