package exec

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/trance-go/trance/internal/dataflow"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/plan"
	"github.com/trance-go/trance/internal/value"
)

// keyedInputs binds L(k, seq) — 2 000 rows of one heavy key and 200 of
// distinct light ones — and R(rk, tag), one row per key, and returns their
// scans.
func keyedInputs(ex *Executor) (l, r *plan.Scan) {
	var lrows, rrows []dataflow.Row
	for i := 0; i < 2200; i++ {
		k := int64(7)
		if i >= 2000 {
			k = int64(100 + i)
			rrows = append(rrows, dataflow.Row{k, "light"})
		}
		lrows = append(lrows, dataflow.Row{k, int64(i)})
	}
	rrows = append(rrows, dataflow.Row{int64(7), "heavy"})
	ex.BindRows("L", lrows)
	ex.BindRows("R", rrows)
	return &plan.Scan{Input: "L", Cols: []plan.Column{{Name: "k", Type: nrc.IntT}, {Name: "seq", Type: nrc.IntT}}},
		&plan.Scan{Input: "R", Cols: []plan.Column{{Name: "rk", Type: nrc.IntT}, {Name: "tag", Type: nrc.StringT}}}
}

func named(name string, idx int, t nrc.Type) plan.NamedExpr {
	return plan.NamedExpr{Name: name, Expr: &plan.Col{Idx: idx, Name: name, Typ: t}}
}

// keyProjections are three π over L ++ R = (k, seq, rk, tag), each two columns
// wide, and the column a Γ above groups on: the key where it is kept, the
// column now at the key's old position where it is not.
var keyProjections = []struct {
	name  string
	outs  []plan.NamedExpr
	key   int
	keeps bool
}{
	{"keeps the key", []plan.NamedExpr{named("tag", 3, nrc.StringT), named("k", 0, nrc.IntT)}, 1, true},
	{"drops the key", []plan.NamedExpr{named("tag", 3, nrc.StringT), named("seq", 1, nrc.IntT)}, 0, false},
	{"computes over the key", []plan.NamedExpr{
		{Name: "k1", Expr: &plan.ArithE{Op: nrc.Add, L: named("k", 0, nrc.IntT).Expr, R: &plan.ConstE{Val: int64(1), Typ: nrc.IntT}, Typ: nrc.IntT}},
		named("tag", 3, nrc.StringT)}, 0, false},
}

// idProjections are three π over numbered L ++ R = (k, seq, _id, rk, tag), each
// two columns wide, and the column a Γ above groups on: the ID where it is
// kept, the column now at its position where it is not.
var idProjections = []struct {
	name  string
	outs  []plan.NamedExpr
	key   int
	keeps bool
}{
	{"keeps the ID", []plan.NamedExpr{named("tag", 4, nrc.StringT), named("_id", 2, nrc.IntT)}, 1, true},
	{"drops the ID", []plan.NamedExpr{named("tag", 4, nrc.StringT), named("seq", 1, nrc.IntT)}, 1, false},
	{"computes over the ID", []plan.NamedExpr{
		{Name: "id1", Expr: &plan.ArithE{Op: nrc.Add, L: named("_id", 2, nrc.IntT).Expr, R: &plan.ConstE{Val: int64(1), Typ: nrc.IntT}, Typ: nrc.IntT}},
		named("tag", 4, nrc.StringT)}, 0, false},
}

// TestFusedJoinRemapsGuarantees is the trap of a join that writes a
// projection: whatever names a left column across it must follow the column to
// its output position, or go. With the left side numbered, the ID's
// co-located set does: plan.Place marks a Γ on the ID above the fused join
// local exactly when it marks the one above π over the plain join, that Γ
// skips one exchange more than the same plan left unmarked, and all three
// return the same groups. (The hash placement a join's Outs carry is
// TestPlaceRules' in internal/plan.)
func TestFusedJoinRemapsGuarantees(t *testing.T) {
	kinds := []struct {
		name      string
		skewAware bool
		method    plan.JoinMethod
	}{
		{"shuffle", false, plan.JoinShuffle},
		{"broadcast", false, plan.JoinBroadcast},
		{"skew", true, plan.JoinShuffle},
	}
	type outcome struct {
		rows  []dataflow.Row
		skips int64
		local bool // plan.Place marked the Γ
	}
	for _, kind := range kinds {
		// run evaluates Γ⊎ key[key] val[val] over what over makes of the join
		// of numbered L and R, placed or not, and reports the sorted groups and
		// the shuffles the run skipped.
		run := func(place bool, over func(*plan.Join) (in plan.Op, key, val int)) outcome {
			t.Helper()
			ctx := dataflow.NewContext(4)
			ex := New(ctx)
			ex.SkewAware = kind.skewAware
			l, r := keyedInputs(ex)
			in, key, val := over(&plan.Join{L: &plan.AddIndex{In: l, Name: "_id"}, R: r, LCols: []int{0}, RCols: []int{0}, Cost: &plan.Costs{Method: kind.method}})
			var nest plan.Op = &plan.Nest{In: in, GroupCols: []int{key}, ValueCols: []int{val}, Agg: plan.AggBag, ScalarElem: true, OutName: "g"}
			if place {
				nest, _ = plan.Place(nest, plan.PlaceOptions{SkewAware: kind.skewAware})
			}
			out, err := ex.Run(nest)
			if err != nil {
				t.Fatalf("%s: %v", kind.name, err)
			}
			return outcome{out.CollectSorted(), ctx.Metrics.SkippedShuffles.Load(), nest.(*plan.Nest).Local != nil}
		}
		for _, p := range idProjections {
			name := kind.name + "/" + p.name
			outs := func(j *plan.Join) (plan.Op, int, int) {
				f := *j
				f.Outs = p.outs
				return &f, p.key, 1 - p.key
			}
			fused, exchanged := run(true, outs), run(false, outs)
			unfused := run(true, func(j *plan.Join) (plan.Op, int, int) {
				return &plan.Project{In: j, Outs: p.outs}, p.key, 1 - p.key
			})
			if fused.local != p.keeps || unfused.local != p.keeps {
				t.Errorf("%s: Γ marked local %t over the fused join and %t over π, want %t", name, fused.local, unfused.local, p.keeps)
			}
			if len(fused.rows) == 0 || value.Compare(rowsBag(fused.rows), rowsBag(unfused.rows)) != 0 ||
				value.Compare(rowsBag(fused.rows), rowsBag(exchanged.rows)) != 0 {
				t.Errorf("%s: %d groups over the fused join, %d over π, %d exchanged, or they differ",
					name, len(fused.rows), len(unfused.rows), len(exchanged.rows))
			}
			wantSkips := exchanged.skips
			if p.keeps {
				wantSkips++
			}
			if fused.skips != wantSkips || unfused.skips != wantSkips {
				t.Errorf("%s: %d skipped shuffles over the fused join, %d over π, want %d", name, fused.skips, unfused.skips, wantSkips)
			}
		}
	}
}

// TestJoinOverLocalNestShuffles is the trap of a Γ that reduced in place under
// a join on its key: its output carries no hash placement, so the join
// exchanges that side itself — where plan.Place keeps the Γ's exchange and
// lets the join skip its own — and both plans return the same rows. (Place
// never marks such a Γ; a plan that does must still be right.)
func TestJoinOverLocalNestShuffles(t *testing.T) {
	run := func(local []int) ([]dataflow.Row, []string) {
		ctx := dataflow.NewContext(4)
		ex := New(ctx)
		// C(k, v) co-located on k, though not hash-placed: each key's rows in
		// one of the 4 partitions; R holds every other key.
		parts := make([][]dataflow.Row, 4)
		var rrows []dataflow.Row
		for i := 0; i < 60; i++ {
			k := int64(i % 12)
			parts[k%4] = append(parts[k%4], dataflow.Row{k, int64(i)})
			if i < 12 && k%2 == 0 {
				rrows = append(rrows, dataflow.Row{k, "r"})
			}
		}
		ex.Bind("C", ctx.FromPartitions(parts))
		ex.BindRows("R", rrows)
		l := &plan.Scan{Input: "C", Cols: []plan.Column{{Name: "k", Type: nrc.IntT}, {Name: "v", Type: nrc.IntT}}}
		r := &plan.Scan{Input: "R", Cols: []plan.Column{{Name: "rk", Type: nrc.IntT}, {Name: "tag", Type: nrc.StringT}}}
		var join plan.Op = &plan.Join{L: &plan.Nest{In: l, GroupCols: []int{0}, ValueCols: []int{1}, Agg: plan.AggSum, Local: local}, R: r, LCols: []int{0}, RCols: []int{0}, Cost: &plan.Costs{Method: plan.JoinShuffle}}
		if local == nil {
			join, _ = plan.Place(join, plan.PlaceOptions{})
		}
		out, err := ex.Run(join)
		if err != nil {
			t.Fatal(err)
		}
		var stages []string
		for _, sw := range ctx.Metrics.Snapshot().StageWall {
			stages = append(stages, sw.Stage)
		}
		return out.CollectSorted(), stages
	}
	local, localStages := run([]int{0})
	exchanged, exchangedStages := run(nil)
	if len(local) != 6 || value.Compare(rowsBag(local), rowsBag(exchanged)) != 0 {
		t.Fatalf("a join over the local Γ gives %d rows, over the exchanged one %d, or they differ", len(local), len(exchanged))
	}
	for _, c := range []struct {
		stages      []string
		nest, joinL bool
	}{{localStages, false, true}, {exchangedStages, true, false}} {
		if slices.Contains(c.stages, "nest#1") != c.nest || slices.Contains(c.stages, "join#2/L") != c.joinL {
			t.Errorf("stages %v: want the Γ's exchange %t and the join's left exchange %t", c.stages, c.nest, c.joinL)
		}
	}
}

// TestFusedJoinRemapsSkewKeys: with a heavy key, a skew join above a fused
// skew join on the key's output position reuses the split the first one made
// exactly where the projection keeps the key as a plain column (plan.Place
// keeps it), and a cross join above, which passes its left triple through,
// moves the key again. Keeping the split joins what sampling again does.
func TestFusedJoinRemapsSkewKeys(t *testing.T) {
	side := &plan.Values{Cols: []plan.Column{{Name: "c", Type: nrc.IntT}}, Rows: []plan.Row{{int64(1)}}}
	for _, p := range keyProjections {
		ex := New(dataflow.NewContext(4))
		ex.SkewAware = true
		l, r := keyedInputs(ex)
		j := &plan.Join{L: l, R: r, LCols: []int{0}, RCols: []int{0}, Outs: p.outs, Cost: &plan.Costs{Method: plan.JoinShuffle}}
		tr, err := ex.run(j)
		if err != nil {
			t.Fatal(err)
		}
		if tr.heavy.Count() != 2000 {
			t.Fatalf("%s: %d heavy rows, want the 2000 of key 7", p.name, tr.heavy.Count())
		}
		type join struct {
			name  string
			in    plan.Op
			key   int
			keeps bool
		}
		cases := []join{{"", j, p.key, p.keeps}}
		if p.keeps {
			// (tag, k) × (c) written as (c, tag, k) moves k from 1 to 2; written
			// as (c, tag) it forgets the keys.
			cases = append(cases,
				join{" under a cross join", &plan.Join{L: j, R: side, Outs: []plan.NamedExpr{named("c", 2, nrc.IntT), named("tag", 0, nrc.StringT), named("k", 1, nrc.IntT)}}, 2, true},
				join{" under a cross join dropping the key", &plan.Join{L: j, R: side, Outs: []plan.NamedExpr{named("c", 2, nrc.IntT), named("tag", 0, nrc.StringT)}}, 1, false})
		}
		for _, c := range cases {
			above := &plan.Join{L: c.in, R: r, LCols: []int{c.key}, RCols: []int{0}, Cost: &plan.Costs{Method: plan.JoinShuffle}}
			placed, _ := plan.Place(above, plan.PlaceOptions{SkewAware: true})
			if placed.(*plan.Join).KeepSplit != c.keeps {
				t.Errorf("%s%s: split kept %t, want %t:\n%s", p.name, c.name, !c.keeps, c.keeps, plan.Explain(placed))
			}
			kept, err := ex.Run(placed)
			if err != nil {
				t.Fatal(err)
			}
			sampled, err := ex.Run(above)
			if err != nil {
				t.Fatal(err)
			}
			if value.Compare(rowsBag(kept.CollectSorted()), rowsBag(sampled.CollectSorted())) != 0 {
				t.Errorf("%s%s: the kept split joins %d rows, sampling again %d", p.name, c.name, kept.Count(), sampled.Count())
			}
		}
	}
}

func rowsBag(rows []dataflow.Row) value.Bag {
	out := make(value.Bag, len(rows))
	for i, r := range rows {
		out[i] = value.Tuple(r)
	}
	return out
}

// runAllocs is the allocation count of binding rows as R, running op over
// them on one partition and materializing the result.
func runAllocs(t *testing.T, op plan.Op, rows []dataflow.Row) float64 {
	ctx := dataflow.NewContext(1)
	return testing.AllocsPerRun(10, func() {
		ex := New(ctx)
		ex.BindRows("R", rows)
		out, err := ex.Run(op)
		if err != nil || out.Force().Err() != nil {
			t.Fatal(err, out.Err())
		}
	})
}

// TestNarrowChainAllocatesPerChunk: a fused π∘ext over 1 000 rows costs the
// arena's chunks, not a row (or two) each; and over one row, the small first
// chunk keeps a point lookup within two objects of the make-per-row executor,
// which took 20 for this plan.
func TestNarrowChainAllocatesPerChunk(t *testing.T) {
	scan := &plan.Scan{Input: "R", Cols: []plan.Column{{Name: "a", Type: nrc.IntT}, {Name: "b", Type: nrc.IntT}}}
	less := &plan.CmpE{Op: nrc.Lt, L: named("a", 0, nrc.IntT).Expr, R: named("b", 1, nrc.IntT).Expr}
	chain := plan.Fuse(&plan.Project{
		In:   &plan.Extend{In: scan, Exprs: []plan.NamedExpr{{Name: "less", Expr: less}}},
		Outs: []plan.NamedExpr{named("b", 1, nrc.IntT), named("less", 2, nrc.BoolT)},
	})
	if _, ok := chain.Children()[0].(*plan.Scan); !ok {
		t.Fatalf("π∘ext did not compose:\n%s", plan.Explain(chain))
	}
	rows := make([]dataflow.Row, 1000)
	for i := range rows {
		rows[i] = dataflow.Row{int64(i % 50), int64(25)}
	}
	if allocs, limit := runAllocs(t, chain, rows), float64(len(rows)/8); allocs >= limit {
		t.Errorf("%v allocations for π∘ext over %d rows, want under %v", allocs, len(rows), limit)
	}

	const perRowExecutor = 20
	one := &plan.Project{In: scan, Outs: []plan.NamedExpr{named("b", 1, nrc.IntT)}}
	if allocs := runAllocs(t, one, rows[:1]); allocs > perRowExecutor+2 {
		t.Errorf("%v allocations for a one-row π, want at most %d", allocs, perRowExecutor+2)
	}
}

// TestBindRefusesAnotherPartitionCount: every dataset the executor binds has
// the context's partition count, which is what lets a placed decision skip an
// exchange without comparing counts at run time; Bind refuses any other.
func TestBindRefusesAnotherPartitionCount(t *testing.T) {
	ctx := dataflow.NewContext(4)
	ex := New(ctx)
	ex.Bind("four", ctx.Empty())
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), `"five" has 5 partitions`) {
			t.Fatalf("Bind of a 5-partition dataset on a 4-partition context: recovered %v", r)
		}
	}()
	ex.Bind("five", ctx.FromPartitions(make([][]dataflow.Row, 5)))
}
