package exec_test

import (
	"errors"
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

func TestBagToDictEstablishesLabelPartitioning(t *testing.T) {
	ctx := dataflow.NewContext(4)
	ex := exec.New(ctx)
	ex.BindRows("D", dictRows())
	out, err := ex.Run(&plan.BagToDict{In: dictOp(), LabelCol: 0})
	if err != nil {
		t.Fatal(err)
	}
	if out.Partitioner() == nil || out.Partitioner().Cols[0] != 0 {
		t.Fatal("BagToDict must establish the label partitioning guarantee")
	}
	// Re-running a repartition on the same key must be free.
	before := ctx.Metrics.Snapshot().ShuffleRecords
	if _, err := out.RepartitionBy("again", []int{0}); err != nil {
		t.Fatal(err)
	}
	if ctx.Metrics.Snapshot().ShuffleRecords != before {
		t.Fatal("guarantee not honoured")
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
