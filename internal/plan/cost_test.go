package plan

import (
	"math"
	"strings"
	"testing"

	"github.com/trance-go/trance/internal/index"
	"github.com/trance-go/trance/internal/nrc"
)

func intCol(idx int, name string) *Col { return &Col{Idx: idx, Name: name, Typ: nrc.IntT} }

func scanOf(input string, names ...string) *Scan {
	cols := make([]Column, len(names))
	for i, n := range names {
		cols[i] = Column{Name: n, Type: nrc.IntT}
	}
	return &Scan{Input: input, Cols: cols}
}

// tables: R is large (10k rows, 1 MB), S is small (100 rows, 4 KB).
func testTables() map[string]TableEstimate {
	return map[string]TableEstimate{
		"R": {Rows: 10000, Bytes: 1 << 20, Cols: map[string]ColEstimate{
			"a": {NDV: 5000, Min: int64(0), Max: int64(9999)},
			"b": {NDV: 10},
		}},
		"S": {Rows: 100, Bytes: 4 << 10, Cols: map[string]ColEstimate{
			"k": {NDV: 100, Min: int64(0), Max: int64(99)},
		}},
	}
}

func findJoin(t *testing.T, op Op) *Join {
	t.Helper()
	var found *Join
	var walk func(Op)
	walk = func(o Op) {
		if j, ok := o.(*Join); ok {
			found = j
		}
		for _, c := range o.Children() {
			walk(c)
		}
	}
	walk(op)
	if found == nil {
		t.Fatalf("no join in plan:\n%s", Explain(op))
	}
	return found
}

func TestAnnotateBroadcastSmallRight(t *testing.T) {
	op := &Join{L: scanOf("R", "a", "b"), R: scanOf("S", "k"), LCols: []int{0}, RCols: []int{0}}
	out, _ := Annotate(op, testTables(), 64<<10)
	j := findJoin(t, out)
	if j.Cost == nil {
		t.Fatalf("join not annotated:\n%s", Explain(out))
	}
	if j.Cost.Method != JoinBroadcast || j.Cost.Swapped {
		t.Fatalf("cost = %+v, want broadcast unswapped", j.Cost)
	}
	// |R ⋈ S| ≈ 10000·100 / max(NDV) = 10000·100/5000 = 200.
	if j.Cost.EstRows != 200 {
		t.Fatalf("est rows = %d, want 200", j.Cost.EstRows)
	}
	if !strings.Contains(j.Describe(), "est_rows=200 join=broadcast") {
		t.Fatalf("describe = %q", j.Describe())
	}
	// The original plan must not have been mutated.
	if op.Cost != nil {
		t.Fatal("Annotate mutated the input plan")
	}
}

func TestAnnotateShuffleLargeBothSides(t *testing.T) {
	op := &Join{L: scanOf("R", "a", "b"), R: scanOf("R", "a", "b"), LCols: []int{0}, RCols: []int{0}}
	out, _ := Annotate(op, testTables(), 64<<10)
	j := findJoin(t, out)
	if j.Cost == nil || j.Cost.Method != JoinShuffle {
		t.Fatalf("cost = %+v, want shuffle", j.Cost)
	}
}

// TestAnnotateSwapsSmallLeft: when only the LEFT side fits under the limit, an
// inner join is swapped (small side becomes the broadcast build side) and a
// projection above restores the original column order.
func TestAnnotateSwapsSmallLeft(t *testing.T) {
	op := &Join{L: scanOf("S", "k"), R: scanOf("R", "a", "b"), LCols: []int{0}, RCols: []int{0}}
	out, _ := Annotate(op, testTables(), 64<<10)
	p, ok := out.(*Project)
	if !ok {
		t.Fatalf("want column-restoring projection at root, got %T:\n%s", out, Explain(out))
	}
	j := findJoin(t, out)
	if j.Cost == nil || j.Cost.Method != JoinBroadcast || !j.Cost.Swapped {
		t.Fatalf("cost = %+v, want swapped broadcast", j.Cost)
	}
	// Swapped join scans R on the left, S on the right.
	if j.L.(*Scan).Input != "R" || j.R.(*Scan).Input != "S" {
		t.Fatalf("join sides not swapped: L=%s R=%s", j.L.(*Scan).Input, j.R.(*Scan).Input)
	}
	// The projection restores the original schema: k, a, b.
	want := []string{"k", "a", "b"}
	cols := p.Columns()
	if len(cols) != len(want) {
		t.Fatalf("restored columns = %v", cols)
	}
	for i, w := range want {
		if cols[i].Name != w {
			t.Fatalf("restored column %d = %s, want %s", i, cols[i].Name, w)
		}
	}
}

func TestAnnotateNeverSwapsOuterJoin(t *testing.T) {
	op := &Join{L: scanOf("S", "k"), R: scanOf("R", "a", "b"), LCols: []int{0}, RCols: []int{0}, Outer: true}
	out, _ := Annotate(op, testTables(), 64<<10)
	j := findJoin(t, out)
	if _, isProject := out.(*Project); isProject {
		t.Fatal("outer join was swapped")
	}
	if j.Cost == nil || j.Cost.Method != JoinShuffle || j.Cost.Swapped {
		t.Fatalf("cost = %+v, want unswapped shuffle", j.Cost)
	}
	// Outer joins keep at least the left side's rows.
	if j.Cost.EstRows < 100 {
		t.Fatalf("outer join est rows = %d, want ≥ |S| = 100", j.Cost.EstRows)
	}
}

func TestAnnotateCrossJoinUnannotated(t *testing.T) {
	op := &Join{L: scanOf("R", "a", "b"), R: scanOf("S", "k")}
	out, _ := Annotate(op, testTables(), 64<<10)
	if j := findJoin(t, out); j.Cost != nil {
		t.Fatalf("cross join annotated: %+v (executor always broadcasts it)", j.Cost)
	}
}

func TestAnnotateUnknownInputPropagates(t *testing.T) {
	op := &Join{L: scanOf("Mystery", "x"), R: scanOf("S", "k"), LCols: []int{0}, RCols: []int{0}}
	out, _ := Annotate(op, testTables(), 64<<10)
	if j := findJoin(t, out); j.Cost != nil {
		t.Fatalf("join over unknown input annotated: %+v", j.Cost)
	}
}

func TestAnnotateSelectivityShrinksJoinSide(t *testing.T) {
	// σ(a = 7) over R keeps ~1/5000 of rows, far under the broadcast limit,
	// so the filtered R broadcasts even though the raw R would not.
	sel := &Select{
		In:   scanOf("R", "a", "b"),
		Pred: &CmpE{Op: nrc.Eq, L: intCol(0, "a"), R: &ConstE{Val: int64(7), Typ: nrc.IntT}},
	}
	op := &Join{L: scanOf("R", "a", "b"), R: sel, LCols: []int{0}, RCols: []int{0}}
	out, _ := Annotate(op, testTables(), 64<<10)
	j := findJoin(t, out)
	if j.Cost == nil || j.Cost.Method != JoinBroadcast {
		t.Fatalf("cost = %+v, want broadcast of the filtered side", j.Cost)
	}
}

func TestAnnotateEmptyTablesNoop(t *testing.T) {
	op := &Join{L: scanOf("R", "a", "b"), R: scanOf("S", "k"), LCols: []int{0}, RCols: []int{0}}
	if out, _ := Annotate(op, nil, 64<<10); out != op {
		t.Fatal("Annotate without statistics should return the plan unchanged")
	}
}

func TestSelectivityFormulas(t *testing.T) {
	cols := []ColEstimate{
		{NDV: 100, Min: int64(0), Max: int64(1000)},
		{NDV: 4},
	}
	eq := &CmpE{Op: nrc.Eq, L: intCol(0, "a"), R: &ConstE{Val: int64(5), Typ: nrc.IntT}}
	if s := Selectivity(eq, cols); s != 0.01 {
		t.Fatalf("eq selectivity = %v, want 1/NDV = 0.01", s)
	}
	ne := &CmpE{Op: nrc.Ne, L: intCol(1, "b"), R: &ConstE{Val: int64(5), Typ: nrc.IntT}}
	if s := Selectivity(ne, cols); s != 0.75 {
		t.Fatalf("ne selectivity = %v, want 1-1/4 = 0.75", s)
	}
	lt := &CmpE{Op: nrc.Lt, L: intCol(0, "a"), R: &ConstE{Val: int64(250), Typ: nrc.IntT}}
	if s := Selectivity(lt, cols); s != 0.25 {
		t.Fatalf("range selectivity = %v, want (250-0)/(1000-0) = 0.25", s)
	}
	// Constant on the left flips the operator: 250 < a  ≡  a > 250.
	flipped := &CmpE{Op: nrc.Lt, L: &ConstE{Val: int64(250), Typ: nrc.IntT}, R: intCol(0, "a")}
	if s := Selectivity(flipped, cols); s != 0.75 {
		t.Fatalf("flipped selectivity = %v, want 0.75", s)
	}
	and := &BoolE{And: true, L: eq, R: lt}
	if s := Selectivity(and, cols); math.Abs(s-0.0025) > 1e-12 {
		t.Fatalf("and selectivity = %v, want 0.01·0.25", s)
	}
	or := &BoolE{And: false, L: eq, R: lt}
	if s := Selectivity(or, cols); math.Abs(s-(0.01+0.25-0.0025)) > 1e-12 {
		t.Fatalf("or selectivity = %v", s)
	}
	not := &NotE{E: lt}
	if s := Selectivity(not, cols); s != 0.75 {
		t.Fatalf("not selectivity = %v, want 0.75", s)
	}
	// Unknown shapes default to 1/3.
	if s := Selectivity(&ConstE{Val: "x", Typ: nrc.StringT}, cols); s != 1.0/3 {
		t.Fatalf("default selectivity = %v, want 1/3", s)
	}
}

// indexedTables is testTables with secondary indexes declared on R's columns
// a and b.
func indexedTables() map[string]TableEstimate {
	tabs := testTables()
	r := tabs["R"]
	for _, col := range []string{"a", "b"} {
		ce := r.Cols[col]
		ce.Indexed = true
		r.Cols[col] = ce
	}
	tabs["R"] = r
	return tabs
}

func findIndexScan(op Op) *IndexScan {
	var found *IndexScan
	var walk func(Op)
	walk = func(o Op) {
		if is, ok := o.(*IndexScan); ok {
			found = is
		}
		for _, c := range o.Children() {
			walk(c)
		}
	}
	walk(op)
	return found
}

// TestIndexScanRangeGate pins the split conversion gate: the ablation
// benchmark measured the gathered range scan losing to the fused full scan at
// ~10% selectivity (3.8ms vs 2.1ms), so a range span may only convert below
// the measured crossover (~1/18), while equality probes keep the original 0.5
// gate.
func TestIndexScanRangeGate(t *testing.T) {
	mkSel := func(op nrc.CmpOp, col *Col, k int64) *Select {
		return &Select{
			In:   scanOf("R", "a", "b"),
			Pred: &CmpE{Op: op, L: col, R: &ConstE{Val: k, Typ: nrc.IntT}},
		}
	}

	// a < 1000 over [0,9999] ≈ 10% selectivity: the regression case. This is
	// exactly where the ablation measured the index arm losing, so it must NOT
	// plan an IndexScan anymore.
	wide, stats := Annotate(mkSel(nrc.Lt, intCol(0, "a"), 1000), indexedTables(), 64<<10)
	if is := findIndexScan(wide); is != nil {
		t.Fatalf("~10%% range predicate converted to IndexScan (gate regressed):\n%s", Explain(wide))
	}
	if stats.Planned != 0 {
		t.Fatalf("planner counted %d index scans for the rejected range", stats.Planned)
	}

	// a < 400 ≈ 4% selectivity sits under the measured crossover and still
	// converts.
	tight, stats := Annotate(mkSel(nrc.Lt, intCol(0, "a"), 400), indexedTables(), 64<<10)
	is := findIndexScan(tight)
	if is == nil {
		t.Fatalf("4%% range predicate no longer converts:\n%s", Explain(tight))
	}
	if got := index.FormatSpans(is.Spans); got != "(-∞,400)" {
		t.Fatalf("range predicate planned spans %s, want (-∞,400)", got)
	}
	if stats.Planned != 1 {
		t.Fatalf("planner counted %d index scans, want 1", stats.Planned)
	}

	// b = k has selectivity 1/NDV(b) = 10%: far above the range gate but a
	// point probe, which keeps the looser equality gate and still plans (this
	// is the tpch.PointLookup shape).
	point, _ := Annotate(mkSel(nrc.Eq, intCol(1, "b"), 3), indexedTables(), 64<<10)
	is = findIndexScan(point)
	if is == nil {
		t.Fatalf("10%% equality probe no longer converts:\n%s", Explain(point))
	}
	if len(is.Spans) != 1 || !is.Spans[0].IsPoint() {
		t.Fatalf("point probe planned spans %s, want one point", index.FormatSpans(is.Spans))
	}

	// An equality conjunct that also tightens a range span to a point keeps
	// the equality gate: a = 42 over NDV 5000 is far under 0.5 either way, but
	// the span is a point, so it must not trip the range gate.
	eqa, _ := Annotate(mkSel(nrc.Eq, intCol(0, "a"), 42), indexedTables(), 64<<10)
	if findIndexScan(eqa) == nil {
		t.Fatalf("point predicate on ordered column no longer converts:\n%s", Explain(eqa))
	}
}

// TestAnnotateCarriedColumnKeepsEstimate: a Γ hands its carried columns'
// estimates on like its grouping columns', so a ⋈ on a carried outer attribute
// is still estimated from its NDV.
func TestAnnotateCarriedColumnKeepsEstimate(t *testing.T) {
	nest := &Nest{In: scanOf("R", "a", "b"), GroupCols: []int{1}, CarryCols: []int{0}, ValueCols: []int{0},
		Agg: AggBag, ScalarElem: true, OutName: "as"}
	a := &annotator{tables: testTables()}
	_, e := a.walk(nest)
	if got := e.cols[1]; got.NDV != 5000 || got.Min != int64(0) || got.Max != int64(9999) {
		t.Fatalf("carried column a leaves Γ with estimate %+v, want NDV 5000 in [0, 9999]", got)
	}
	if got := e.cols[0]; got.NDV != 10 {
		t.Fatalf("grouping column b leaves Γ with estimate %+v, want NDV 10", got)
	}
	if got := e.cols[2]; got.NDV != 0 {
		t.Fatalf("the aggregate has estimate %+v, want unknown", got)
	}

	// |Γ| = 10000/4; joined to S on a: 2500·100 / max(NDV a, NDV k) = 50.
	annotated, _ := Annotate(&Join{L: nest, R: scanOf("S", "k"), LCols: []int{1}, RCols: []int{0}}, testTables(), 64<<10)
	j := findJoin(t, annotated)
	if j.Cost == nil || j.Cost.EstRows != 50 {
		t.Fatalf("join on a carried column: cost %+v, want est_rows=50", j.Cost)
	}
}
