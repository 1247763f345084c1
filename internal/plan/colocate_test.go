package plan

import (
	"strings"
	"testing"
)

// reduces lists, in Explain order, how every Γ/dedup of Colocate(op) reduces:
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
	walk(Colocate(op, skewAware))
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
			t.Errorf("%s:\n got %s\nwant %s\n%s", c.name, got, c.want, Explain(Colocate(c.op, c.skew)))
		}
	}
}

// TestColocateKeepsItsInput: the pass marks copies, and marking its own output
// again changes nothing — a stale mark is cleared, not kept.
func TestColocateKeepsItsInput(t *testing.T) {
	in := sumBy(numbered(), 3)
	before := Explain(in)
	once := Colocate(in, false)
	if Explain(in) != before || in.Local != nil {
		t.Fatalf("Colocate mutated its input:\n%s", Explain(in))
	}
	if twice := Colocate(once, false); Explain(twice) != Explain(once) {
		t.Fatalf("colocating twice differs:\n%s\nvs\n%s", Explain(twice), Explain(once))
	}
	stale := *in
	stale.Local = []int{0}
	stale.In = copies(numbered(), 0, 1, 2)
	if got := reduces(&stale, false); got != "exchange" {
		t.Fatalf("a stale mark survives: %s", got)
	}
}
