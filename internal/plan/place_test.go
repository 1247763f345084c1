package plan

import (
	"fmt"
	"strings"
	"testing"
)

// reduces lists, in Explain order, how every Γ/dedup of Place(op) reduces:
// "local on <columns>" or "exchange".
func reduces(op Op, skewAware bool) string {
	var out []string
	var walk func(Op)
	walk = func(op Op) {
		switch x := op.(type) {
		case *Nest:
			out = append(out, reduceMark(x.In, x.Local))
		case *DedupOp:
			out = append(out, reduceMark(x.In, x.Local))
		}
		for _, ch := range op.Children() {
			walk(ch)
		}
	}
	placed, _ := Place(op, PlaceOptions{SkewAware: skewAware})
	walk(placed)
	return strings.Join(out, " / ")
}

func reduceMark(in Op, local []int) string {
	if local == nil {
		return "exchange"
	}
	return strings.TrimSuffix(strings.TrimPrefix(localMark(in, local), " ["), "]")
}

// sumBy is Γ+ over in keyed by key, summing column 0.
func sumBy(in Op, key ...int) *Nest {
	return &Nest{In: in, GroupCols: key, GDepth: len(key), ValueCols: []int{0}, Agg: AggSum}
}

func TestColocateRules(t *testing.T) {
	s := intScan("S", "k", "v")
	un := flattened() // a, b, xs, _id, x.v
	joinOn := func(l Op, lcol int, cost *Costs) *Join {
		return &Join{L: l, R: s, LCols: []int{lcol}, RCols: []int{0}, Cost: cost}
	}
	bcast, shuffle := &Costs{Method: JoinBroadcast}, &Costs{Method: JoinShuffle}
	cases := []struct {
		name string
		op   Op
		skew bool
		want string
	}{
		{"addIndex: Γ on the ID reduces in place", sumBy(numbered(), 3), false, "local on _id"},
		{"a key the ID does not lie in is not enough", sumBy(numbered(), 0, 1), false, "exchange"},
		{"π copying the ID carries it", sumBy(copies(numbered(), 3, 0), 0), false, "local on _id"},
		{"π dropping the ID loses it", sumBy(copies(numbered(), 0, 1), 0, 1), false, "exchange"},
		{"σ and ext keep it", sumBy(&Extend{In: sel(numbered(), gt(col(numbered(), 0), 1)), Exprs: []NamedExpr{{Name: "c", Expr: col(numbered(), 0)}}}, 3), false, "local on _id"},
		{"σ̄ nullifying a neighbour keeps it", sumBy(&Select{In: numbered(), Pred: gt(col(numbered(), 0), 1), NullifyCols: []int{1}}, 3), false, "local on _id"},
		{"σ̄ nullifying the ID loses it", sumBy(&Select{In: numbered(), Pred: gt(col(numbered(), 0), 1), NullifyCols: []int{3}}, 3), false, "exchange"},
		{"μ̄ carries it through its pass-through columns", sumBy(un, 3, 4), false, "local on _id"},
		{"μ̄ not writing the ID loses it", sumBy(&Unnest{In: numbered(), BagCol: 2, Prefix: "x", Outer: true, Outs: []int{0, 1, 4}}, 0, 1), false, "exchange"},
		{"⊎ carries none", sumBy(&UnionAll{L: numbered(), R: numbered()}, 3), false, "exchange"},
		{"a broadcast join keeps its left's sets", sumBy(joinOn(un, 4, bcast), 3), false, "local on _id"},
		{"… under skew too, where it splits nothing", sumBy(joinOn(un, 4, bcast), 3), true, "local on _id"},
		{"a shuffle join keeps a set determining its key", sumBy(joinOn(un, 0, shuffle), 3), false, "local on _id"},
		{"a shuffle join drops a set not determining its key", sumBy(joinOn(un, 4, shuffle), 3), false, "exchange"},
		{"without a Cost only the key rule applies", sumBy(joinOn(un, 4, nil), 3), false, "exchange"},
		{"the right side's sets never survive", sumBy(&Join{L: s, R: numbered(), LCols: []int{0}, RCols: []int{0}, Cost: bcast}, 5), false, "exchange"},
		{"a shuffle join adds its key", sumBy(copies(joinOn(s, 0, shuffle), 3, 0), 1), false, "local on k"},
		{"… but not under skew, where heavy keys stay spread", sumBy(copies(joinOn(s, 0, shuffle), 3, 0), 1), true, "exchange"},
		{"a fused join carries sets through its Outs", sumBy(&Join{L: numbered(), R: s, LCols: []int{0}, RCols: []int{0}, Outs: copies(&Join{L: numbered(), R: s}, 4, 3).Outs}, 1), false, "local on _id"},
		{"a local Γ passes its sets on and adds its key",
			sumBy(copies(sumBy(un, 4, 3), 1, 0, 2), 0), false, "local on _id / local on _id"},
		{"an exchanged Γ adds only its key",
			sumBy(copies(sumBy(copies(un, 3, 4), 1), 0, 1), 1), false, "exchange / exchange"},
		{"… which a Γ on it reuses", sumBy(sumBy(copies(un, 0, 4), 1), 0), false, "local on x.v / exchange"},
		{"dedup over an ID reduces in place", &DedupOp{In: numbered()}, false, "local on _id"},
		{"dedup over a scan exchanges, then a Γ on every column reuses it", sumBy(&DedupOp{In: s}, 1, 0), false, "local on k v / exchange"},
		{"… and one on fewer columns does not", sumBy(&DedupOp{In: s}, 1), false, "exchange / exchange"},
		// The trap: a Γ under a join side on exactly its key keeps its exchange,
		// whose placement lets the join skip its own.
		{"a Γ feeding a join on its key keeps its exchange", joinOn(sumBy(numbered(), 3), 0, nil), false, "exchange"},
		{"… through σ, ext and addIndex too", joinOn(&AddIndex{In: sel(sumBy(numbered(), 3), gt(col(sumBy(numbered(), 3), 0), 1)), Name: "i"}, 0, nil), false, "exchange"},
		{"… on the right side as well", &Join{L: s, R: sumBy(numbered(), 3), LCols: []int{0}, RCols: []int{0}}, false, "exchange"},
		{"a join on another column does not", joinOn(sumBy(numbered(), 3), 1, nil), false, "local on _id"},
		{"nor does one past a π", joinOn(copies(sumBy(numbered(), 3), 0, 1), 0, nil), false, "local on _id"},
	}
	for _, c := range cases {
		if got := reduces(c.op, c.skew); got != c.want {
			placed, _ := Place(c.op, PlaceOptions{SkewAware: c.skew})
			t.Errorf("%s:\n got %s\nwant %s\n%s", c.name, got, c.want, Explain(placed))
		}
	}
}

// TestColocateKeepsItsInput: the pass marks copies, and marking its own output
// again changes nothing — a stale mark is cleared, not kept.
func TestColocateKeepsItsInput(t *testing.T) {
	in := &Join{L: sumBy(numbered(), 3), R: intScan("S", "k"), LCols: []int{0}, RCols: []int{0}}
	before := Explain(in)
	once, _ := Place(in, PlaceOptions{})
	if Explain(in) != before || in.Placed != [2]bool{} {
		t.Fatalf("Place mutated its input:\n%s", Explain(in))
	}
	if !once.(*Join).Placed[0] {
		t.Fatalf("the exchanged Γ does not place the join's left side:\n%s", Explain(once))
	}
	if twice, _ := Place(once, PlaceOptions{}); Explain(twice) != Explain(once) {
		t.Fatalf("placing twice differs:\n%s\nvs\n%s", Explain(twice), Explain(once))
	}
	if stale, _ := Place(once.(*Join).L, PlaceOptions{}); stale.(*Nest).Local == nil {
		t.Fatalf("placing the Γ alone keeps its exchange:\n%s", Explain(stale))
	}
	stale := *in.L.(*Nest)
	stale.Local = []int{0}
	stale.In = copies(numbered(), 0, 1, 2)
	if got := reduces(&stale, false); got != "exchange" {
		t.Fatalf("a stale mark survives: %s", got)
	}
	staleJoin := &Join{L: numbered(), R: intScan("S", "k"), LCols: []int{0}, RCols: []int{0}, Placed: [2]bool{true, true}}
	if got, _ := Place(staleJoin, PlaceOptions{}); got.(*Join).Placed != [2]bool{} {
		t.Fatalf("a stale placed side survives:\n%s", Explain(got))
	}
}

// decisions lists, in Explain order, every exchange decision Place makes over
// op — a join's placed sides, a BagToDict's skip, how each Γ/dedup reduces —
// and after "→" where the dataset op yields lies.
func decisions(op Op, opts PlaceOptions) string {
	placed, hash := Place(op, opts)
	var out []string
	var walk func(Op)
	walk = func(op Op) {
		switch x := op.(type) {
		case *Join:
			out = append(out, "⋈"+x.placedMark()+mark(x.KeepSplit, "split kept"))
		case *BagToDict:
			out = append(out, "bagToDict"+strings.TrimPrefix(x.Describe(), fmt.Sprintf("bagToDict $%d", x.LabelCol)))
		case *Nest:
			out = append(out, "Γ "+reduceMark(x.In, x.Local))
		case *DedupOp:
			out = append(out, "dedup "+reduceMark(x.In, x.Local))
		}
		for _, ch := range op.Children() {
			walk(ch)
		}
	}
	walk(placed)
	where := "none"
	if hash != nil {
		keys := make([]string, len(hash))
		for i, k := range hash {
			keys[i] = fmt.Sprint(k)
		}
		where = strings.Join(keys, " ")
	}
	return strings.Join(out, " / ") + " → " + where
}

// TestPlaceRules: where hash placement comes from (a placed input, an
// exchanged Γ/dedup, BagToDict, a shuffle join), what keeps it and what clears
// it, and the exchanges it lets a join side, a BagToDict or a Γ skip.
func TestPlaceRules(t *testing.T) {
	p, s := intScan("P", "k", "v"), intScan("S", "k", "w")
	bound := map[string][][]int{"P": {{0}}}
	shuffle, bcast := &Costs{Method: JoinShuffle}, &Costs{Method: JoinBroadcast}
	joinOn := func(l Op, lcol int, cost *Costs) *Join {
		return &Join{L: l, R: s, LCols: []int{lcol}, RCols: []int{0}, Cost: cost}
	}
	// l ++ s is (k, v, k', w) when l is P.
	fused := func(cols ...int) *Join {
		j := joinOn(p, 0, shuffle)
		j.Outs = copies(&Join{L: p, R: s}, cols...).Outs
		return j
	}
	plain, skewed := PlaceOptions{Bound: bound}, PlaceOptions{SkewAware: true, Bound: bound}
	cases := []struct {
		name string
		op   Op
		opts PlaceOptions
		want string
	}{
		{"a placed scan on its key", joinOn(p, 0, shuffle), plain, "⋈ [L placed] → [0]"},
		{"… not on another key", joinOn(p, 1, shuffle), plain, "⋈ → [1]"},
		{"σ keeps it", joinOn(sel(p, gt(col(p, 1), 1)), 0, shuffle), plain, "⋈ [L placed] → [0]"},
		{"σ̄ nullifying the key drops it", joinOn(&Select{In: p, Pred: gt(col(p, 1), 1), NullifyCols: []int{0}}, 0, shuffle), plain, "⋈ → [0]"},
		{"σ̄ nullifying a neighbour keeps it", joinOn(&Select{In: p, Pred: gt(col(p, 1), 1), NullifyCols: []int{1}}, 0, shuffle), plain, "⋈ [L placed] → [0]"},
		{"π carries it to where it copies the key", joinOn(copies(p, 1, 0), 1, shuffle), plain, "⋈ [L placed] → [1]"},
		{"π dropping the key drops it", copies(p, 1), plain, " → none"},
		{"Outs carry a shuffle join's placement", joinOn(fused(3, 0), 1, shuffle), plain, "⋈ [L placed] / ⋈ [L placed] → [1]"},
		{"Outs dropping the key drop it", joinOn(fused(3, 1), 1, shuffle), plain, "⋈ / ⋈ [L placed] → [1]"},
		{"a broadcast join keeps its left side's placement", joinOn(joinOn(p, 1, bcast), 0, shuffle), plain, "⋈ [L placed] / ⋈ → [0]"},
		{"⊎ clears it", joinOn(&UnionAll{L: p, R: p}, 0, shuffle), plain, "⋈ → [0]"},
		{"a join without a Cost clears it", joinOn(joinOn(p, 1, nil), 0, shuffle), plain, "⋈ / ⋈ → [0]"},
		{"… unless its left side lies on its key already", joinOn(joinOn(p, 0, nil), 0, shuffle), plain, "⋈ [L placed] / ⋈ [L placed] → [0]"},
		{"… or nothing broadcasts", joinOn(joinOn(p, 1, nil), 1, nil), PlaceOptions{NoBroadcast: true, Bound: bound}, "⋈ [L placed] / ⋈ → [1]"},
		{"an exchanged Γ is placed on its key", &Join{L: s, R: sumBy(s, 0), LCols: []int{0}, RCols: []int{0}, Cost: shuffle}, plain, "⋈ [R placed] / Γ exchange → [0] [2]"},
		{"a Γ over rows placed on its key reduces where they lie", sumBy(p, 0), plain, "Γ local on k → [0]"},
		{"an exchanged dedup is placed on all its columns", &Join{L: s, R: &DedupOp{In: intScan("T", "k")}, LCols: []int{0}, RCols: []int{0}, Cost: shuffle}, plain, "⋈ [R placed] / dedup exchange → [0] [2]"},
		{"BagToDict is placed on its label", &BagToDict{In: &BagToDict{In: s}}, plain, "bagToDict [placed] / bagToDict → [0]"},
		{"a skew join keeps a placement on its key", joinOn(p, 0, shuffle), skewed, "⋈ [L placed] → [0]"},
		{"… where its heavy rows lie apart on another", joinOn(p, 1, shuffle), skewed, "⋈ → none"},
		{"… so a Γ on its key exchanges", sumBy(joinOn(p, 1, shuffle), 1), skewed, "Γ exchange / ⋈ → [0]"},
		{"… and a skew join on it reuses the split", joinOn(joinOn(p, 1, shuffle), 1, shuffle), skewed, "⋈ [L placed] [split kept] / ⋈ → none"},
		{"… a skew BagToDict on it too", &BagToDict{In: joinOn(p, 1, shuffle), LabelCol: 1}, skewed, "bagToDict [placed] [split kept] / ⋈ → none"},
		{"a skew BagToDict over rows placed on the label", &BagToDict{In: p}, skewed, "bagToDict [placed] → [0]"},
		{"a skew-aware broadcast join is the plain one", joinOn(joinOn(p, 1, bcast), 0, shuffle), skewed, "⋈ [L placed] / ⋈ → [0]"},
		{"… and leaves no split a skew join could keep", joinOn(joinOn(p, 1, bcast), 1, shuffle), skewed, "⋈ / ⋈ → none"},
		{"a join the size rule may broadcast keeps no split it was not given", joinOn(joinOn(p, 1, nil), 1, shuffle), skewed, "⋈ / ⋈ → none"},
		{"… and passes on one it was", joinOn(joinOn(joinOn(p, 1, shuffle), 1, nil), 1, shuffle), skewed, "⋈ [L placed] [split kept] / ⋈ [L placed] [split kept] / ⋈ → none"},
		// Placement sets.
		{"a join of two placed sides moves nothing and keeps both sides' keys", &Join{L: p, R: p, LCols: []int{0}, RCols: []int{0}, Cost: bcast}, plain, "⋈ [L R placed] → [0] [2]"},
		{"… an outer one only the left's", &Join{L: p, R: p, LCols: []int{0}, RCols: []int{0}, Outer: true}, plain, "⋈ [L R placed] → [0]"},
		{"… on the skew-aware strategies too", &Join{L: p, R: p, LCols: []int{0}, RCols: []int{0}}, skewed, "⋈ [L R placed] → [0] [2]"},
		{"… but not over a kept split, whose heavy rows lie apart", &Join{L: joinOn(p, 1, shuffle), R: intScan("P", "k", "v"), LCols: []int{1}, RCols: []int{0}, Cost: shuffle}, skewed, "⋈ [L R placed] [split kept] / ⋈ → none"},
		{"a priced broadcast over a placed left side shuffles the right", joinOn(p, 0, bcast), plain, "⋈ [L placed] → [0]"},
		{"a join the size rule decides keeps a placed left side's keys", joinOn(p, 0, nil), plain, "⋈ [L placed] → [0]"},
		{"a Scan lies on every key it is bound on", &Join{L: intScan("Q", "a", "b"), R: p, LCols: []int{1}, RCols: []int{0}, Cost: shuffle}, PlaceOptions{Bound: map[string][][]int{"Q": {{0}, {1}}, "P": {{0}}}}, "⋈ [L R placed] → [0] [1] [2]"},
	}
	for _, c := range cases {
		if got := decisions(c.op, c.opts); got != c.want {
			placed, _ := Place(c.op, c.opts)
			t.Errorf("%s:\n got %s\nwant %s\n%s", c.name, got, c.want, Explain(placed))
		}
	}
	// A repriced broadcast is a broadcast again where the left side, placed
	// again, no longer lies on the key; the cost Place was given is untouched.
	priced, _ := Place(joinOn(p, 0, bcast), plain)
	again, _ := Place(priced, PlaceOptions{})
	if c := priced.(*Join).Cost; c.Method != JoinShuffle || !c.Repriced {
		t.Errorf("a broadcast over a placed left side is priced %+v, want a repriced shuffle", c)
	}
	if c := again.(*Join).Cost; c.Method != JoinBroadcast || c.Repriced || bcast.Method != JoinBroadcast {
		t.Errorf("placed again over an unplaced left side: %+v (given %+v), want the broadcast back", c, bcast)
	}
}

// TestPlaceCombines: Place combines an exchanged Γ+ or dedup, and nothing
// else — not a Γ⊎, whose partial would be its whole bag, nor a Γ/dedup that
// reduces in place.
func TestPlaceCombines(t *testing.T) {
	bag := func(in Op, key ...int) *Nest {
		return &Nest{In: in, GroupCols: key, ValueCols: []int{0}, Agg: AggBag, OutName: "g"}
	}
	cases := []struct {
		name string
		op   Op
		want bool
	}{
		{"exchanged Γ+", sumBy(numbered(), 0, 1), true},
		{"local Γ+", sumBy(numbered(), 3), false},
		{"exchanged Γ⊎", bag(numbered(), 0, 1), false},
		{"local Γ⊎", bag(numbered(), 3), false},
		{"exchanged dedup", &DedupOp{In: intScan("S", "k", "v")}, true},
		{"local dedup", &DedupOp{In: numbered()}, false},
	}
	for _, c := range cases {
		placed, _ := Place(c.op, PlaceOptions{})
		var got bool
		switch x := placed.(type) {
		case *Nest:
			got = x.Combine
		case *DedupOp:
			got = x.Combine
		}
		if got != c.want || strings.Contains(Explain(placed), "[combined]") != c.want {
			t.Errorf("%s: combined %t, want %t:\n%s", c.name, got, c.want, Explain(placed))
		}
	}
}
