package exec_test

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"github.com/trance-go/trance/internal/dataflow"
	"github.com/trance-go/trance/internal/exec"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/plan"
	"github.com/trance-go/trance/internal/value"
)

func dictOp() *plan.Scan {
	return &plan.Scan{Input: "D", Cols: []plan.Column{
		{Name: "label", Type: nrc.LabelT},
		{Name: "v", Type: nrc.IntT},
	}}
}

func dictRows() []dataflow.Row {
	l1 := value.Label{Site: 1, Payload: value.Tuple{int64(1)}}
	l2 := value.Label{Site: 1, Payload: value.Tuple{int64(2)}}
	return []dataflow.Row{{l1, int64(10)}, {l1, int64(11)}, {l2, int64(20)}}
}

// TestBagToDictEstablishesLabelPartitioning: BagToDict leaves the dictionary
// hash-placed on the label, so plan.Place marks a second one over it placed
// and it moves nothing.
func TestBagToDictEstablishesLabelPartitioning(t *testing.T) {
	ctx := dataflow.NewContext(4)
	ex := exec.New(ctx)
	ex.BindRows("D", dictRows())
	twice, _ := plan.Place(&plan.BagToDict{In: &plan.BagToDict{In: dictOp(), LabelCol: 0}, LabelCol: 0}, plan.PlaceOptions{})
	if !twice.(*plan.BagToDict).Placed {
		t.Fatalf("BagToDict over a dictionary on the same label is not placed:\n%s", plan.Explain(twice))
	}
	out, err := ex.Run(twice)
	if err != nil {
		t.Fatal(err)
	}
	if m := ctx.Metrics.Snapshot(); m.Stages != 1 || m.SkippedShuffles != 1 || m.ShuffleRecords != 3 || out.Count() != 3 {
		t.Fatalf("%d exchanges (%d rows) and %d skipped for %d rows, want 1 (3), 1 and 3", m.Stages, m.ShuffleRecords, m.SkippedShuffles, out.Count())
	}
}

func TestBagToDictSkewAwareKeepsHeavyInPlace(t *testing.T) {
	ctx := dataflow.NewContext(4)
	ex := exec.New(ctx)
	ex.SkewAware = true
	// One heavy label dominating the bag.
	heavy := value.Label{Site: 1, Payload: value.Tuple{int64(7)}}
	rows := make([]dataflow.Row, 0, 2100)
	for i := 0; i < 2000; i++ {
		rows = append(rows, dataflow.Row{heavy, int64(i)})
	}
	for i := 0; i < 100; i++ {
		rows = append(rows, dataflow.Row{value.Label{Site: 1, Payload: value.Tuple{int64(100 + i)}}, int64(i)})
	}
	ex.BindRows("D", rows)
	out, err := ex.Run(&plan.BagToDict{In: dictOp(), LabelCol: 0})
	if err != nil {
		t.Fatal(err)
	}
	if out.Count() != 2100 {
		t.Fatalf("rows lost: %d", out.Count())
	}
	m := ctx.Metrics.Snapshot()
	// Only light labels may be repartitioned: far fewer than 2100 records.
	if m.ShuffleRecords >= 1000 {
		t.Fatalf("skew-aware BagToDict shuffled heavy labels: %d records", m.ShuffleRecords)
	}
}

func TestRunUnboundInput(t *testing.T) {
	ex := exec.New(dataflow.NewContext(2))
	_, err := ex.Run(&plan.Scan{Input: "nope"})
	if err == nil {
		t.Fatal("unbound input must error")
	}
}

func TestMemoryCapPropagatesThroughNest(t *testing.T) {
	ctx := dataflow.NewContext(2)
	ctx.MaxPartitionBytes = 128
	ex := exec.New(ctx)
	rows := make([]dataflow.Row, 200)
	for i := range rows {
		rows[i] = dataflow.Row{int64(1), int64(i)} // one giant group
	}
	ex.BindRows("R", rows)
	scan := &plan.Scan{Input: "R", Cols: []plan.Column{
		{Name: "k", Type: nrc.IntT}, {Name: "v", Type: nrc.IntT},
	}}
	nest := &plan.Nest{In: scan, GroupCols: []int{0}, ValueCols: []int{1},
		Agg: plan.AggBag, Mode: plan.Structural, OutName: "vs", ScalarElem: true}
	_, err := ex.Run(nest)
	if !errors.Is(err, dataflow.ErrMemoryExceeded) {
		t.Fatalf("want memory error, got %v", err)
	}
}

func TestValuesOperator(t *testing.T) {
	ex := exec.New(dataflow.NewContext(2))
	v := &plan.Values{
		Cols: []plan.Column{{Name: "a", Type: nrc.IntT}},
		Rows: []plan.Row{{int64(1)}, {int64(2)}},
	}
	out, err := ex.Run(v)
	if err != nil {
		t.Fatal(err)
	}
	if out.Count() != 2 {
		t.Fatalf("values rows: %d", out.Count())
	}
}

// skewedJoin is L ⋈ R on k over 2 000 rows of one heavy key and 200 rows of
// distinct light ones, against a right side holding one row per key.
func skewedJoin(ex *exec.Executor) *plan.Join {
	var l, r []dataflow.Row
	for i := 0; i < 2200; i++ {
		k := int64(7)
		if i >= 2000 {
			k = int64(100 + i)
			r = append(r, dataflow.Row{k, "light"})
		}
		l = append(l, dataflow.Row{k, int64(i)})
	}
	r = append(r, dataflow.Row{int64(7), "heavy"})
	ex.BindRows("L", l)
	ex.BindRows("R", r)
	return &plan.Join{
		L:     &plan.Scan{Input: "L", Cols: []plan.Column{{Name: "k", Type: nrc.IntT}, {Name: "seq", Type: nrc.IntT}}},
		R:     &plan.Scan{Input: "R", Cols: []plan.Column{{Name: "rk", Type: nrc.IntT}, {Name: "tag", Type: nrc.StringT}}},
		LCols: []int{0}, RCols: []int{0},
	}
}

// TestAddIndexUniqueAcrossSkewComponents: the IDs AddIndex hands out feed
// label identity across statements, so they must be distinct over the light
// and the heavy component of a skew join's output together.
func TestAddIndexUniqueAcrossSkewComponents(t *testing.T) {
	ex := exec.New(dataflow.NewContext(4))
	ex.SkewAware = true
	out, err := ex.Run(&plan.AddIndex{In: skewedJoin(ex), Name: "id"})
	if err != nil {
		t.Fatal(err)
	}
	rows := out.Collect()
	if len(rows) != 2200 {
		t.Fatalf("%d rows, want 2200", len(rows))
	}
	seen := map[int64]bool{}
	for _, r := range rows {
		seen[r[len(r)-1].(int64)] = true
	}
	if len(seen) != len(rows) {
		t.Fatalf("%d distinct IDs over %d rows", len(seen), len(rows))
	}
}

// TestOperatorsOverSkewJoinOutput runs the two operators that treat a heavy
// component specially — a cross join, which has no key to split on, and
// BagToDict, which re-splits on its label — directly over a skew join's output,
// and holds them row for row to the skew-unaware run of the same plan.
func TestOperatorsOverSkewJoinOutput(t *testing.T) {
	plans := map[string]func(*plan.Join) plan.Op{
		"cross": func(j *plan.Join) plan.Op {
			side := &plan.Values{Cols: []plan.Column{{Name: "c", Type: nrc.IntT}}, Rows: []plan.Row{{int64(1)}, {int64(2)}}}
			return &plan.Join{L: j, R: side}
		},
		"bagToDict": func(j *plan.Join) plan.Op { return &plan.BagToDict{In: j, LabelCol: 0} },
	}
	for name, over := range plans {
		var got [2][]dataflow.Row
		for i, skewAware := range []bool{false, true} {
			ctx := dataflow.NewContext(4)
			ex := exec.New(ctx)
			ex.SkewAware = skewAware
			out, err := ex.Run(over(skewedJoin(ex)))
			if err != nil {
				t.Fatalf("%s (skew-aware %t): %v", name, skewAware, err)
			}
			got[i] = out.CollectSorted()
			if stages := ctx.Metrics.Snapshot().StageWall; skewAware && !strings.HasPrefix(stages[1].Stage, "skewjoin#") {
				t.Fatalf("%s: the input join did not take the skew-aware arm: %v", name, stages)
			}
		}
		if len(got[0]) == 0 || value.Compare(bagOf(got[0], false), bagOf(got[1], false)) != 0 {
			t.Fatalf("%s: skew-aware run returned %d rows, skew-unaware %d, or they differ", name, len(got[1]), len(got[0]))
		}
	}
}

// TestUnnestWritesOnlyListedColumns: μ/μ̄ with an output column list writes
// those cells, in that order — pass-through columns, the NULL tombstone when
// it is listed, element fields (or the bare element of a scalar bag) — and
// NULL element cells for the one row μ̄ keeps of an empty bag.
func TestUnnestWritesOnlyListedColumns(t *testing.T) {
	elem := nrc.TupleType{Fields: []nrc.Field{{Name: "p", Type: nrc.IntT}, {Name: "q", Type: nrc.IntT}}}
	scan := &plan.Scan{Input: "R", Cols: []plan.Column{
		{Name: "a", Type: nrc.IntT},
		{Name: "ts", Type: nrc.BagType{Elem: elem}},
		{Name: "ns", Type: nrc.BagType{Elem: nrc.IntT}},
	}}
	rows := []dataflow.Row{
		{int64(1), value.Bag{value.Tuple{int64(10), int64(11)}, value.Tuple{int64(20), int64(21)}}, value.Bag{int64(7), int64(8)}},
		{int64(2), value.Bag{}, nil},
	}
	cases := []struct {
		name string
		op   *plan.Unnest
		want []dataflow.Row
	}{
		// Full layout: a, ts, ns, t.p, t.q.
		{"μ̄ tuple elements, reordered", &plan.Unnest{In: scan, BagCol: 1, Prefix: "t", Outer: true, Outs: []int{4, 0}},
			[]dataflow.Row{{int64(11), int64(1)}, {int64(21), int64(1)}, {nil, int64(2)}}},
		{"μ drops the empty bag's row", &plan.Unnest{In: scan, BagCol: 1, Prefix: "t", Outs: []int{0, 3}},
			[]dataflow.Row{{int64(1), int64(10)}, {int64(1), int64(20)}}},
		{"the tombstone is NULL when listed", &plan.Unnest{In: scan, BagCol: 1, Prefix: "t", Outs: []int{1, 3}},
			[]dataflow.Row{{nil, int64(10)}, {nil, int64(20)}}},
		// Full layout: a, ts, ns, n._value.
		{"μ̄ scalar elements", &plan.Unnest{In: scan, BagCol: 2, Prefix: "n", Outer: true, Outs: []int{3, 0}},
			[]dataflow.Row{{int64(7), int64(1)}, {int64(8), int64(1)}, {nil, int64(2)}}},
		{"no list writes the full layout", &plan.Unnest{In: scan, BagCol: 2, Prefix: "n"},
			[]dataflow.Row{{int64(1), rows[0][1], nil, int64(7)}, {int64(1), rows[0][1], nil, int64(8)}}},
	}
	for _, c := range cases {
		ex := exec.New(dataflow.NewContext(2))
		ex.BindRows("R", rows)
		out, err := ex.Run(c.op)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := out.CollectSorted(); value.Compare(bagOf(got, false), bagOf(c.want, false)) != 0 {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

// TestSkewKeysFollowUnnestOutputs: above a μ that moves the columns, a skew
// join's heavy keys are known for where the key column went — not for the
// column now at its old position, which the next join here is keyed on.
func TestSkewKeysFollowUnnestOutputs(t *testing.T) {
	var got [2][]dataflow.Row
	for i, skewAware := range []bool{false, true} {
		ex := exec.New(dataflow.NewContext(4))
		ex.SkewAware = skewAware
		j := skewedJoin(ex)
		width := len(j.Columns())
		xs := &plan.ConstE{Val: value.Bag{int64(1), int64(2)}, Typ: nrc.BagType{Elem: nrc.IntT}}
		withBag := &plan.Extend{In: j, Exprs: []plan.NamedExpr{{Name: "xs", Expr: xs}}}
		// μ writes (x, k): x takes position 0, where the heavy key k was.
		un := &plan.Unnest{In: withBag, BagCol: width, Prefix: "x", Outs: []int{width + 1, j.LCols[0]}}
		names := &plan.Values{Cols: []plan.Column{{Name: "n", Type: nrc.IntT}, {Name: "name", Type: nrc.StringT}},
			Rows: []plan.Row{{int64(1), "one"}, {int64(2), "two"}}}
		out, err := ex.Run(&plan.Join{L: un, R: names, LCols: []int{0}, RCols: []int{0}})
		if err != nil {
			t.Fatalf("skew-aware %t: %v", skewAware, err)
		}
		got[i] = out.CollectSorted()
	}
	if len(got[0]) != 4400 || value.Compare(bagOf(got[0], false), bagOf(got[1], false)) != 0 {
		t.Fatalf("skew-aware run returned %d rows, skew-unaware %d (want 4400), or they differ", len(got[1]), len(got[0]))
	}
}

// TestAnalyzedPlacementDecisions: under EXPLAIN ANALYZE a Γ that plan.Place
// marked local reports its base stage, under which the context recorded only
// its reduce (there is no exchange to name), and the narrow operators below it
// count the rows they passed, as the uninstrumented run returns the same
// groups.
func TestAnalyzedPlacementDecisions(t *testing.T) {
	scan := &plan.Scan{Input: "R", Cols: []plan.Column{{Name: "k", Type: nrc.IntT}, {Name: "v", Type: nrc.IntT}}}
	kept := &plan.Select{In: scan, Pred: &plan.CmpE{Op: nrc.Lt, L: &plan.Col{Idx: 1, Name: "v", Typ: nrc.IntT}, R: &plan.ConstE{Val: int64(30), Typ: nrc.IntT}}}
	numbered := &plan.AddIndex{In: kept, Name: "_id"}
	raw := &plan.Nest{In: numbered, GroupCols: []int{2}, ValueCols: []int{1}, Agg: plan.AggSum}
	placed, _ := plan.Place(raw, plan.PlaceOptions{})
	nest := placed.(*plan.Nest)
	if nest.Local == nil {
		t.Fatalf("Γ on the ID is not local:\n%s", plan.Explain(placed))
	}
	var rows []dataflow.Row
	for i := int64(0); i < 40; i++ {
		rows = append(rows, dataflow.Row{i % 4, i})
	}
	var stages []string
	run := func(a *plan.Analysis) []dataflow.Row {
		ctx := dataflow.NewContext(3)
		ex := exec.New(ctx)
		ex.Analysis = a
		defer func() {
			stages = stages[:0]
			for _, st := range ctx.Metrics.Snapshot().StageWall {
				stages = append(stages, st.Stage)
			}
		}()
		ex.BindRows("R", rows)
		out, err := ex.Run(placed)
		if err != nil {
			t.Fatal(err)
		}
		return out.CollectSorted()
	}
	a := plan.NewAnalysis()
	want, got := run(nil), run(a)
	if len(got) != 30 || value.Compare(rowsBag(got), rowsBag(want)) != 0 {
		t.Fatalf("analyzed run: %d groups, plain run %d, or they differ", len(got), len(want))
	}
	sel, id, gamma := a.Lookup(nest.In.(*plan.AddIndex).In), a.Lookup(nest.In), a.Lookup(nest)
	if !slices.Equal(stages, []string{gamma.Stage + "/reduce"}) || gamma.RowsOut.Load() != 30 {
		t.Errorf("Γ ran under stage %q (stages %v) with %d rows out, want only its reduce and 30", gamma.Stage, stages, gamma.RowsOut.Load())
	}
	if sel.RowsIn.Load() != 40 || sel.RowsOut.Load() != 30 || id.RowsOut.Load() != 30 {
		t.Errorf("σ passed %d of %d rows and addIndex %d, want 30 of 40 and 30", sel.RowsOut.Load(), sel.RowsIn.Load(), id.RowsOut.Load())
	}
}

func rowsBag(rows []dataflow.Row) value.Bag {
	out := make(value.Bag, len(rows))
	for i, r := range rows {
		out[i] = value.Tuple(r)
	}
	return out
}
