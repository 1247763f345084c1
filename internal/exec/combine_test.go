package exec_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/trance-go/trance/internal/dataflow"
	"github.com/trance-go/trance/internal/exec"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/plan"
	"github.com/trance-go/trance/internal/value"
)

// combineInput draws the rows of ⟨k, c, p, i, r⟩ over four partitions: a key
// k (sometimes NULL), a carry c that differs from row to row (so only the
// group's first row may supply it), a presence column p (NULL: a phantom),
// and an int i and a real r to sum, either of them NULL at times. Some groups
// hold only phantoms, some only NULL values; the ints include values that
// wrap, and the reals sum differently in different orders.
func combineInput(rng *rand.Rand) [][]dataflow.Row {
	reals := []float64{1e16, -1e16, 0.1, 0.5, 3, 1e-16}
	ints := []int64{1, 7, math.MaxInt64, math.MinInt64 + 3}
	parts := make([][]dataflow.Row, 4)
	for n := 0; n < 400; n++ {
		key := value.Value(int64(rng.Intn(30)))
		if rng.Intn(40) == 0 {
			key = nil
		}
		k, _ := key.(int64)
		var p value.Value = true
		if k%7 == 6 || rng.Intn(8) == 0 {
			p = nil // keys ≡ 6 mod 7 hold only phantoms
		}
		var i, r value.Value
		if k%5 != 4 { // keys ≡ 4 mod 5 hold only NULL values
			if rng.Intn(6) != 0 {
				i = ints[rng.Intn(len(ints))]
			}
			if rng.Intn(6) != 0 {
				r = reals[rng.Intn(len(reals))]
			}
		}
		part := rng.Intn(len(parts))
		parts[part] = append(parts[part], dataflow.Row{key, fmt.Sprint("row", n), p, i, r})
	}
	return parts
}

// TestCombinedReduceMatchesExchange: a Γ+ or dedup combined on its source
// partitions yields the rows of the uncombined exchange, in the same order
// and with the same bits — first-seen group order, carries from the group's
// first row, marker rows for phantom-only groups (dropped at the root), zero
// for a group of NULL values, wrapped int sums and exact real sums — while
// shipping fewer rows.
func TestCombinedReduceMatchesExchange(t *testing.T) {
	cols := []plan.Column{
		{Name: "k", Type: nrc.IntT}, {Name: "c", Type: nrc.StringT}, {Name: "p", Type: nrc.BoolT},
		{Name: "i", Type: nrc.IntT}, {Name: "r", Type: nrc.RealT},
	}
	run := func(parts [][]dataflow.Row, op plan.Op) ([]dataflow.Row, dataflow.Snapshot, *plan.NodeStats) {
		t.Helper()
		ctx := dataflow.NewContext(3)
		ex := exec.New(ctx)
		ex.Analysis = plan.NewAnalysis()
		ex.Inputs["R"] = ctx.FromPartitions(parts)
		out, err := ex.Run(op)
		if err != nil {
			t.Fatal(err)
		}
		return out.Collect(), ctx.Metrics.Snapshot(), ex.Analysis.Lookup(op)
	}
	rng := rand.New(rand.NewSource(7))
	markers, zeros := 0, 0
	for trial := range 6 {
		parts := combineInput(rng)
		scan := &plan.Scan{Input: "R", Cols: cols}
		for _, mode := range []plan.NestMode{plan.ExplicitRoot, plan.ExplicitNested} {
			nest := func(combine bool) plan.Op {
				return &plan.Nest{In: scan, GroupCols: []int{0}, CarryCols: []int{1}, ValueCols: []int{3, 4},
					PresenceCols: []int{2}, Agg: plan.AggSum, Mode: mode, Combine: combine}
			}
			want, wm, _ := run(parts, nest(false))
			got, gm, ns := run(parts, nest(true))
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d %s: combined Γ+\n%v\nuncombined\n%v", trial, mode, got, want)
			}
			if gm.ShuffleRecords >= wm.ShuffleRecords || ns.CombinedIn.Load() != 400 || ns.CombinedOut.Load() != gm.ShuffleRecords {
				t.Fatalf("trial %d %s: combined %d→%d rows and shipped %d, uncombined shipped %d",
					trial, mode, ns.CombinedIn.Load(), ns.CombinedOut.Load(), gm.ShuffleRecords, wm.ShuffleRecords)
			}
			for _, r := range got {
				switch {
				case r[2] == nil:
					markers++
				case r[2] == int64(0) && r[3] == 0.0:
					zeros++
				}
			}
		}
		// Dedup over ⟨k, p⟩, whose rows repeat within and across partitions.
		proj := &plan.Project{In: scan, Outs: []plan.NamedExpr{
			{Name: "k", Expr: &plan.Col{Idx: 0, Name: "k", Typ: nrc.IntT}},
			{Name: "p", Expr: &plan.Col{Idx: 2, Name: "p", Typ: nrc.BoolT}},
		}}
		want, wm, _ := run(parts, &plan.DedupOp{In: proj})
		got, gm, _ := run(parts, &plan.DedupOp{In: proj, Combine: true})
		if fmt.Sprint(got) != fmt.Sprint(want) || gm.ShuffleRecords >= wm.ShuffleRecords {
			t.Fatalf("trial %d: combined dedup shipped %d rows\n%v\nuncombined %d\n%v", trial, gm.ShuffleRecords, got, wm.ShuffleRecords, want)
		}
	}
	if markers == 0 || zeros == 0 {
		t.Fatalf("%d marker rows and %d groups of NULL values: the cases are not exercised", markers, zeros)
	}
}
