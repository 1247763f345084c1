package exec

import (
	"slices"
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

// TestFusedJoinRemapsGuarantees is the trap of a join that writes a
// projection: whatever names the key column across it — the shuffle join's
// partitioner, the one a broadcast join inherits, the skew arm's — must follow
// the key to its output position, or go. A Γ on the key right above the fused
// join skips its shuffle exactly when the plain join lets it; where the
// projection drops or computes over the key, the Γ — keyed on the column now
// at the key's old position — shuffles, and returns what π over the plain join
// returns.
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
	for _, kind := range kinds {
		// run evaluates Γ⊎ key[key] val[val] over what over makes of the join,
		// and reports the sorted groups and the shuffles the run skipped.
		run := func(over func(*plan.Join) (in plan.Op, key, val int)) ([]dataflow.Row, int64) {
			t.Helper()
			ctx := dataflow.NewContext(4)
			ex := New(ctx)
			ex.SkewAware = kind.skewAware
			l, r := keyedInputs(ex)
			var left plan.Op = l
			if kind.method == plan.JoinBroadcast {
				// A broadcast join keeps the guarantee its left input came with.
				left = &plan.BagToDict{In: l, LabelCol: 0}
			}
			in, key, val := over(&plan.Join{L: left, R: r, LCols: []int{0}, RCols: []int{0}, Cost: &plan.Costs{Method: kind.method}})
			out, err := ex.Run(&plan.Nest{In: in, GroupCols: []int{key}, ValueCols: []int{val}, Agg: plan.AggBag, ScalarElem: true, OutName: "g"})
			if err != nil {
				t.Fatalf("%s: %v", kind.name, err)
			}
			return out.CollectSorted(), ctx.Metrics.SkippedShuffles.Load()
		}
		_, plainSkips := run(func(j *plan.Join) (plan.Op, int, int) { return j, 0, 3 })
		for _, p := range keyProjections {
			name := kind.name + "/" + p.name
			fused, fusedSkips := run(func(j *plan.Join) (plan.Op, int, int) {
				f := *j
				f.Outs = p.outs
				return &f, p.key, 1 - p.key
			})
			unfused, unfusedSkips := run(func(j *plan.Join) (plan.Op, int, int) {
				return &plan.Project{In: j, Outs: p.outs}, p.key, 1 - p.key
			})
			if len(fused) == 0 || value.Compare(rowsBag(fused), rowsBag(unfused)) != 0 {
				t.Errorf("%s: the fused join gives %d groups, π over the join %d, or they differ", name, len(fused), len(unfused))
			}
			// π drops every guarantee, so the Γ above it always shuffles.
			wantSkips := unfusedSkips
			if p.keeps {
				wantSkips = plainSkips
				if !kind.skewAware && plainSkips <= unfusedSkips {
					t.Errorf("%s: Γ over the plain join skipped no shuffle (%d skips, %d under π): nothing to keep", name, plainSkips, unfusedSkips)
				}
			}
			if fusedSkips != wantSkips {
				t.Errorf("%s: %d skipped shuffles, want %d", name, fusedSkips, wantSkips)
			}
		}
	}
}

// TestFusedJoinRemapsSkewKeys: with a heavy key, the triple a fused skew join
// returns knows its heavy keys at the key's output position, or not at all —
// and a cross join above, which passes its left triple through, moves them
// again.
func TestFusedJoinRemapsSkewKeys(t *testing.T) {
	for _, p := range keyProjections {
		ex := New(dataflow.NewContext(4))
		ex.SkewAware = true
		l, r := keyedInputs(ex)
		j := &plan.Join{L: l, R: r, LCols: []int{0}, RCols: []int{0}, Outs: p.outs}
		tr, err := ex.run(j)
		if err != nil {
			t.Fatal(err)
		}
		if tr.heavy.Count() != 2000 {
			t.Fatalf("%s: %d heavy rows, want the 2000 of key 7", p.name, tr.heavy.Count())
		}
		switch {
		case p.keeps && (len(tr.keys) != 1 || !slices.Equal(tr.keyCols, []int{p.key})):
			t.Errorf("%s: %d heavy keys over %v, want 1 over [%d]", p.name, len(tr.keys), tr.keyCols, p.key)
		case !p.keeps && (tr.keys != nil || tr.keyCols != nil):
			t.Errorf("%s: heavy keys over %v survive a projection without the key", p.name, tr.keyCols)
		}
		if !p.keeps {
			continue
		}
		// (tag, k) × (c) written as (c, k, tag): k moves from 1 to 1, then a
		// projection without it forgets the keys.
		side := &plan.Values{Cols: []plan.Column{{Name: "c", Type: nrc.IntT}}, Rows: []plan.Row{{int64(1)}}}
		for _, c := range []struct {
			outs []plan.NamedExpr
			want []int
		}{
			{[]plan.NamedExpr{named("c", 2, nrc.IntT), named("tag", 0, nrc.StringT), named("k", 1, nrc.IntT)}, []int{2}},
			{[]plan.NamedExpr{named("c", 2, nrc.IntT), named("tag", 0, nrc.StringT)}, nil},
		} {
			tr, err := ex.run(&plan.Join{L: j, R: side, Outs: c.outs})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(tr.keyCols, c.want) || (tr.keys == nil) != (c.want == nil) {
				t.Errorf("cross join over %s: heavy keys over %v (known: %t), want %v", p.name, tr.keyCols, tr.keys != nil, c.want)
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
