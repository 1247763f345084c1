package plan

import (
	"strings"
	"testing"

	"github.com/trance-go/trance/internal/nrc"
)

// Plan-construction helpers: integer-columned scans keep the trees terse.

func intScan(input string, names ...string) *Scan {
	cols := make([]Column, len(names))
	for i, n := range names {
		cols[i] = Column{Name: n, Type: nrc.IntT}
	}
	return &Scan{Input: input, Cols: cols}
}

func col(op Op, i int) *Col {
	c := op.Columns()[i]
	return &Col{Idx: i, Name: c.Name, Typ: c.Type}
}

func gt(l Expr, v int64) Expr {
	return &CmpE{Op: nrc.Gt, L: l, R: &ConstE{Val: v, Typ: nrc.IntT}}
}

func eqc(l Expr, v int64) Expr {
	return &CmpE{Op: nrc.Eq, L: l, R: &ConstE{Val: v, Typ: nrc.IntT}}
}

func sel(in Op, pred Expr) *Select { return &Select{In: in, Pred: pred} }

// mustSelect asserts op is a plain Select and returns it.
func mustSelect(t *testing.T, op Op) *Select {
	t.Helper()
	s, ok := op.(*Select)
	if !ok {
		t.Fatalf("want *Select, got %T:\n%s", op, Explain(op))
	}
	return s
}

func TestSelectFusionAndPushToScan(t *testing.T) {
	scan := intScan("R", "a", "b")
	p := sel(sel(scan, gt(col(scan, 0), 1)), gt(col(scan, 1), 2))
	out, st := Optimize(p)
	s := mustSelect(t, out)
	if _, ok := s.In.(*Scan); !ok {
		t.Fatalf("fused select should sit directly on the scan:\n%s", Explain(out))
	}
	if b, ok := s.Pred.(*BoolE); !ok || !b.And {
		t.Fatalf("two selects should fuse into one conjunction, got %s", s.Pred)
	}
	if st.SelectsFused != 1 {
		t.Fatalf("SelectsFused = %d, want 1 (%s)", st.SelectsFused, st.String())
	}
}

func TestConstantFoldingDropsTrueSelect(t *testing.T) {
	scan := intScan("R", "a")
	// (1+1) == 2 && a > 0  →  a > 0 after folding.
	pred := &BoolE{And: true,
		L: &CmpE{Op: nrc.Eq,
			L: &ArithE{Op: nrc.Add, L: &ConstE{Val: int64(1), Typ: nrc.IntT}, R: &ConstE{Val: int64(1), Typ: nrc.IntT}, Typ: nrc.IntT},
			R: &ConstE{Val: int64(2), Typ: nrc.IntT}},
		R: gt(col(scan, 0), 0)}
	out, st := Optimize(sel(scan, pred))
	s := mustSelect(t, out)
	if _, ok := s.Pred.(*CmpE); !ok {
		t.Fatalf("constant side should fold away, got %s", s.Pred)
	}
	if st.ConstantsFolded == 0 {
		t.Fatalf("no constants folded: %s", st.String())
	}

	// A wholly true predicate removes the Select.
	out, st = Optimize(sel(scan, eqc(&ConstE{Val: int64(3), Typ: nrc.IntT}, 3)))
	if _, ok := out.(*Scan); !ok {
		t.Fatalf("true select should vanish, got %T", out)
	}
	if st.TrueSelectsDropped != 1 {
		t.Fatalf("TrueSelectsDropped = %d, want 1", st.TrueSelectsDropped)
	}
}

func TestFalseSelectBecomesEmptyValues(t *testing.T) {
	scan := intScan("R", "a", "b")
	out, st := Optimize(sel(scan, eqc(&ConstE{Val: int64(1), Typ: nrc.IntT}, 2)))
	v, ok := out.(*Values)
	if !ok || len(v.Rows) != 0 {
		t.Fatalf("false select should become an empty Values, got %T:\n%s", out, Explain(out))
	}
	if len(v.Cols) != 2 || v.Cols[0].Name != "a" {
		t.Fatalf("empty relation must keep the schema, got %v", v.Cols)
	}
	if st.FalseSelectsCut != 1 {
		t.Fatalf("FalseSelectsCut = %d, want 1", st.FalseSelectsCut)
	}
}

func TestPushBelowProjectSubstitutes(t *testing.T) {
	scan := intScan("R", "a", "b")
	proj := &Project{In: scan, Outs: []NamedExpr{
		{Name: "x", Expr: &ArithE{Op: nrc.Add, L: col(scan, 0), R: col(scan, 1), Typ: nrc.IntT}},
	}}
	out, st := Optimize(sel(proj, gt(&Col{Idx: 0, Name: "x", Typ: nrc.IntT}, 5)))
	p, ok := out.(*Project)
	if !ok {
		t.Fatalf("select should push below the projection, got %T", out)
	}
	s := mustSelect(t, p.In)
	if !strings.Contains(s.Pred.String(), "+") {
		t.Fatalf("pushed predicate should inline the defining expression, got %s", s.Pred)
	}
	if st.PredicatesPushed == 0 {
		t.Fatalf("no pushes recorded: %s", st.String())
	}
}

func TestPushBelowExtendSubstitutes(t *testing.T) {
	scan := intScan("R", "a")
	ext := &Extend{In: scan, Exprs: []NamedExpr{
		{Name: "twice", Expr: &ArithE{Op: nrc.Mul, L: col(scan, 0), R: &ConstE{Val: int64(2), Typ: nrc.IntT}, Typ: nrc.IntT}},
	}}
	out, _ := Optimize(sel(ext, gt(&Col{Idx: 1, Name: "twice", Typ: nrc.IntT}, 4)))
	e, ok := out.(*Extend)
	if !ok {
		t.Fatalf("select should push below the extend, got %T", out)
	}
	s := mustSelect(t, e.In)
	if _, ok := s.In.(*Scan); !ok {
		t.Fatalf("pushed select should reach the scan:\n%s", Explain(out))
	}
}

func TestPushBelowJoinBothSides(t *testing.T) {
	l := intScan("L", "a", "b")
	r := intScan("R", "k", "v")
	join := &Join{L: l, R: r, LCols: []int{0}, RCols: []int{0}}
	// left-only + right-only + mixed conjuncts.
	pred := &BoolE{And: true,
		L: &BoolE{And: true,
			L: gt(&Col{Idx: 1, Name: "b", Typ: nrc.IntT}, 1),  // left
			R: gt(&Col{Idx: 3, Name: "v", Typ: nrc.IntT}, 2)}, // right
		R: &CmpE{Op: nrc.Lt, L: &Col{Idx: 1, Name: "b", Typ: nrc.IntT}, R: &Col{Idx: 3, Name: "v", Typ: nrc.IntT}}, // mixed
	}
	out, st := Optimize(sel(join, pred))
	top := mustSelect(t, out) // mixed conjunct stays above
	j, ok := top.In.(*Join)
	if !ok {
		t.Fatalf("join should be directly under the residual select:\n%s", Explain(out))
	}
	ls := mustSelect(t, j.L)
	if ls.Pred.String() != "($1:b > 1)" {
		t.Fatalf("left side predicate wrong: %s", ls.Pred)
	}
	rs := mustSelect(t, j.R)
	if rs.Pred.String() != "($1:v > 2)" {
		t.Fatalf("right side predicate should be rebased to right coordinates: %s", rs.Pred)
	}
	if st.PredicatesPushed != 2 {
		t.Fatalf("PredicatesPushed = %d, want 2 (%s)", st.PredicatesPushed, st.String())
	}
}

func TestJoinKeyConstantDerivesOtherSide(t *testing.T) {
	l := intScan("L", "a", "b")
	r := intScan("R", "k", "v")
	join := &Join{L: l, R: r, LCols: []int{0}, RCols: []int{0}}
	out, st := Optimize(sel(join, eqc(&Col{Idx: 0, Name: "a", Typ: nrc.IntT}, 7)))
	j, ok := out.(*Join)
	if !ok {
		t.Fatalf("conjunct should be absorbed below the join, got %T:\n%s", out, Explain(out))
	}
	ls := mustSelect(t, j.L)
	if ls.Pred.String() != "($0:a == 7)" {
		t.Fatalf("left filter wrong: %s", ls.Pred)
	}
	rs := mustSelect(t, j.R)
	if rs.Pred.String() != "($0:k == 7)" {
		t.Fatalf("derived right filter wrong: %s", rs.Pred)
	}
	if st.JoinSideDerived != 1 {
		t.Fatalf("JoinSideDerived = %d, want 1", st.JoinSideDerived)
	}
}

// Negative test: the null-extended side of an outer join must not be
// filtered early — the predicate would drop null-extended rows above, which
// a pushed filter cannot reproduce.
func TestNoPushIntoOuterJoinRightSide(t *testing.T) {
	l := intScan("L", "a")
	r := intScan("R", "k")
	join := &Join{L: l, R: r, LCols: []int{0}, RCols: []int{0}, Outer: true}
	out, st := Optimize(sel(join, gt(&Col{Idx: 1, Name: "k", Typ: nrc.IntT}, 3)))
	top := mustSelect(t, out)
	j, ok := top.In.(*Join)
	if !ok {
		t.Fatalf("outer join right-side predicate must stay above:\n%s", Explain(out))
	}
	if _, ok := j.R.(*Scan); !ok {
		t.Fatalf("right input must stay unfiltered:\n%s", Explain(out))
	}
	if st.PushesRefused != 1 {
		t.Fatalf("PushesRefused = %d, want 1 (%s)", st.PushesRefused, st.String())
	}
	// Left-side predicates still push below an outer join.
	out, _ = Optimize(sel(join, gt(&Col{Idx: 0, Name: "a", Typ: nrc.IntT}, 3)))
	j2, ok := out.(*Join)
	if !ok {
		t.Fatalf("left predicate should push below ⟕, got %T", out)
	}
	mustSelect(t, j2.L)
}

func TestPushBelowUnnestPreColumnsOnly(t *testing.T) {
	scan := &Scan{Input: "R", Cols: []Column{
		{Name: "a", Type: nrc.IntT},
		{Name: "items", Type: nrc.BagType{Elem: nrc.Tup("v", nrc.IntT)}},
	}}
	un := &Unnest{In: scan, BagCol: 1, Prefix: "it", Outer: true}
	// a > 1 pushes below (outer unnest included); it.v > 2 stays above; a
	// predicate over the tombstoned bag column must stay above too.
	pred := &BoolE{And: true,
		L: gt(&Col{Idx: 0, Name: "a", Typ: nrc.IntT}, 1),
		R: gt(&Col{Idx: 2, Name: "it.v", Typ: nrc.IntT}, 2)}
	out, _ := Optimize(sel(un, pred))
	top := mustSelect(t, out)
	u, ok := top.In.(*Unnest)
	if !ok {
		t.Fatalf("element predicate must stay above the unnest:\n%s", Explain(out))
	}
	inner := mustSelect(t, u.In)
	if inner.Pred.String() != "($0:a > 1)" {
		t.Fatalf("pre-column predicate should push below: %s", inner.Pred)
	}

	// A predicate over the tombstoned bag column itself is a refused push
	// (below the unnest it would see the bag; above, NULL).
	bagPred := &CmpE{Op: nrc.Eq,
		L: &Col{Idx: 1, Name: "items", Typ: scan.Cols[1].Type},
		R: &ConstE{Val: nil, Typ: scan.Cols[1].Type}}
	out, st := Optimize(sel(un, bagPred))
	top = mustSelect(t, out)
	if _, ok := top.In.(*Unnest); !ok {
		t.Fatalf("bag-column predicate must stay above the unnest:\n%s", Explain(out))
	}
	if st.PushesRefused != 1 {
		t.Fatalf("PushesRefused = %d, want 1 for the tombstoned column (%s)", st.PushesRefused, st.String())
	}
}

// Negative test: predicates must not push below an outer-preserving
// selection when they read a column it nullifies — below the σ̄ they would
// see the un-nullified value and keep rows the plan must drop.
func TestNoPushBelowNullifyingSelect(t *testing.T) {
	scan := intScan("R", "a", "b")
	nullify := &Select{In: scan, Pred: gt(col(scan, 0), 0), NullifyCols: []int{1}}
	out, st := Optimize(sel(nullify, gt(&Col{Idx: 1, Name: "b", Typ: nrc.IntT}, 5)))
	top := mustSelect(t, out)
	if top.NullifyCols != nil {
		t.Fatalf("residual select must sit above the σ̄:\n%s", Explain(out))
	}
	inner, ok := top.In.(*Select)
	if !ok || inner.NullifyCols == nil {
		t.Fatalf("σ̄ must stay in place:\n%s", Explain(out))
	}
	if _, ok := inner.In.(*Scan); !ok {
		t.Fatalf("nothing may sink below the σ̄ here:\n%s", Explain(out))
	}
	if st.PushesRefused != 1 {
		t.Fatalf("PushesRefused = %d, want 1 (%s)", st.PushesRefused, st.String())
	}

	// A predicate over a column the σ̄ does NOT nullify passes through.
	out, st = Optimize(sel(nullify, gt(&Col{Idx: 0, Name: "a", Typ: nrc.IntT}, 5)))
	sb, ok := out.(*Select)
	if !ok || sb.NullifyCols == nil {
		t.Fatalf("σ̄ should be topmost after the push:\n%s", Explain(out))
	}
	mustSelect(t, sb.In)
	if st.PushesRefused != 0 || st.PredicatesPushed == 0 {
		t.Fatalf("push through σ̄ on untouched columns should succeed: %s", st.String())
	}
}

// Negative test: predicates must not push through explicit-mode Nests —
// their phantom-group marker rows are created and dropped by mode-specific
// rules a pre-grouping filter could disturb. Structural nests do admit
// group-key pushes.
func TestNoPushThroughExplicitNest(t *testing.T) {
	scan := intScan("R", "k", "v")
	mkNest := func(mode NestMode) *Nest {
		return &Nest{In: scan, GroupCols: []int{0}, ValueCols: []int{1},
			Agg: AggSum, Mode: mode}
	}
	keyPred := gt(&Col{Idx: 0, Name: "k", Typ: nrc.IntT}, 2)

	for _, mode := range []NestMode{ExplicitRoot, ExplicitNested} {
		out, st := Optimize(sel(mkNest(mode), keyPred))
		top := mustSelect(t, out)
		n, ok := top.In.(*Nest)
		if !ok {
			t.Fatalf("%s: predicate must stay above the explicit nest:\n%s", mode, Explain(out))
		}
		if _, ok := n.In.(*Scan); !ok {
			t.Fatalf("%s: nest input must stay unfiltered:\n%s", mode, Explain(out))
		}
		if st.PushesRefused != 1 {
			t.Fatalf("%s: PushesRefused = %d, want 1", mode, st.PushesRefused)
		}
	}

	// Structural mode: the group-key predicate sinks below the Γ, remapped
	// onto the input grouping column.
	structural := &Nest{In: scan, GroupCols: []int{1, 0}, ValueCols: []int{0},
		Agg: AggBag, Mode: Structural, OutName: "grp"}
	out, st := Optimize(sel(structural, gt(&Col{Idx: 1, Name: "k", Typ: nrc.IntT}, 2)))
	n, ok := out.(*Nest)
	if !ok {
		t.Fatalf("structural nest should admit the push, got %T:\n%s", out, Explain(out))
	}
	inner := mustSelect(t, n.In)
	if inner.Pred.String() != "($0:k > 2)" {
		t.Fatalf("group-key predicate must be remapped onto the input column: %s", inner.Pred)
	}
	if st.PredicatesPushed != 1 {
		t.Fatalf("PredicatesPushed = %d, want 1", st.PredicatesPushed)
	}
}

// Negative test: predicates must not push past AddIndex — unique-ID
// assignment depends on the rows present, and the IDs feed label identity
// shared across the plan fragments of a shredded program.
func TestNoPushPastAddIndex(t *testing.T) {
	scan := intScan("R", "a")
	ai := &AddIndex{In: scan, Name: "_id"}
	out, st := Optimize(sel(ai, gt(&Col{Idx: 0, Name: "a", Typ: nrc.IntT}, 1)))
	top := mustSelect(t, out)
	a, ok := top.In.(*AddIndex)
	if !ok {
		t.Fatalf("predicate must stay above AddIndex:\n%s", Explain(out))
	}
	if _, ok := a.In.(*Scan); !ok {
		t.Fatalf("AddIndex input must stay unfiltered:\n%s", Explain(out))
	}
	if st.PushesRefused != 1 {
		t.Fatalf("PushesRefused = %d, want 1 (%s)", st.PushesRefused, st.String())
	}
}

func TestPushBelowDedupUnionBagToDict(t *testing.T) {
	l := intScan("L", "a")
	r := intScan("R", "a")
	u := &UnionAll{L: l, R: r}
	out, st := Optimize(sel(&DedupOp{In: u}, gt(&Col{Idx: 0, Name: "a", Typ: nrc.IntT}, 1)))
	d, ok := out.(*DedupOp)
	if !ok {
		t.Fatalf("push below dedup failed, got %T", out)
	}
	ua, ok := d.In.(*UnionAll)
	if !ok {
		t.Fatalf("push below union failed:\n%s", Explain(out))
	}
	mustSelect(t, ua.L)
	mustSelect(t, ua.R)
	if st.PredicatesPushed != 3 { // dedup crossing + one per union branch? (counted once at the union)
		t.Logf("note: PredicatesPushed = %d", st.PredicatesPushed)
	}

	btd := &BagToDict{In: intScan("D", "label", "x"), LabelCol: 0}
	out, _ = Optimize(sel(btd, gt(&Col{Idx: 1, Name: "x", Typ: nrc.IntT}, 1)))
	b, ok := out.(*BagToDict)
	if !ok {
		t.Fatalf("push below bagToDict failed, got %T", out)
	}
	mustSelect(t, b.In)
}

// A no-op outer-preserving selection (empty NullifyCols — nothing to nullify,
// no rows dropped) is removed entirely.
func TestNoopNullifySelectDropped(t *testing.T) {
	scan := intScan("R", "a")
	noop := &Select{In: scan, Pred: gt(col(scan, 0), 0), NullifyCols: []int{}}
	out, st := Optimize(noop)
	if _, ok := out.(*Scan); !ok {
		t.Fatalf("no-op σ̄ should vanish, got %T", out)
	}
	if st.TrueSelectsDropped != 1 {
		t.Fatalf("TrueSelectsDropped = %d, want 1", st.TrueSelectsDropped)
	}
}

// Optimize must never mutate its input plan: the prepared-query cache shares
// compiled artifacts across goroutines.
func TestOptimizeDoesNotMutateInput(t *testing.T) {
	scan := intScan("R", "a", "b")
	join := &Join{L: scan, R: intScan("S", "k"), LCols: []int{0}, RCols: []int{0}}
	orig := sel(join, gt(&Col{Idx: 1, Name: "b", Typ: nrc.IntT}, 1))
	before := Explain(orig)
	if _, st := Optimize(orig); st.PredicatesPushed == 0 {
		t.Fatal("expected a push")
	}
	if Explain(orig) != before {
		t.Fatal("Optimize mutated its input plan")
	}
}

func TestGlobalOptStatsAccumulates(t *testing.T) {
	before := trueSelectsDropped.Load()
	scan := intScan("R", "a")
	Optimize(sel(scan, eqc(&ConstE{Val: int64(1), Typ: nrc.IntT}, 1)))
	if after := trueSelectsDropped.Load(); after <= before {
		t.Fatalf("global counters did not advance: %d → %d", before, after)
	}
}
