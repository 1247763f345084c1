package runner

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/plan"
	"github.com/trance-go/trance/internal/value"
)

// itemsEnv, itemsData and itemsQuery are the benchmark's nested read: per
// row its id and the items whose k passes a bound, a dictionary computed by
// a σ/π chain over the placed input dictionary D__items.
var itemsEnv = nrc.Env{"D": nrc.BagOf(nrc.Tup(
	"id", nrc.IntT,
	"items", nrc.BagOf(nrc.Tup("k", nrc.IntT, "w", nrc.RealT))))}

func itemsData(from, n int) value.Bag { return itemsDataMod(from, n, 5) }

// itemsDataMod is itemsData with ids drawn modulo mod: the fewer rows share an
// id, the fewer ties a limited read breaks inside the bags.
func itemsDataMod(from, n, mod int) value.Bag {
	d := make(value.Bag, n)
	for i := range d {
		id := from + i
		items := make(value.Bag, 1+id%4)
		for j := range items {
			items[j] = value.Tuple{int64(100 + (id*7+j*311)%900), float64(j) + 0.5}
		}
		d[i] = value.Tuple{int64(id % mod), items}
	}
	return d
}

func itemsQuery() nrc.Expr {
	r, it := nrc.V("r"), nrc.V("it")
	return nrc.ForIn("r", nrc.V("D"), nrc.SingOf(nrc.Record(
		"id", nrc.P(r, "id"),
		"big", nrc.ForIn("it", nrc.P(r, "items"),
			nrc.IfThen(nrc.GeOf(nrc.P(it, "k"), nrc.C(int64(550))),
				nrc.SingOf(nrc.Record("k", nrc.P(it, "k"), "w", nrc.P(it, "w"))))))))
}

// itemsInput binds the items data in three chunks whose label ranges are not
// in chunk order, as a catalog generation rebuilt by a delete holds them.
func itemsInput() Inputs { return itemsInputMod(5) }

// itemsInputMod is itemsInput over itemsDataMod's ids modulo mod.
func itemsInputMod(mod int) Inputs {
	bt := itemsEnv["D"]
	return Inputs{"D": NewInput("D", bt, []*Chunk{
		NewChunk(itemsDataMod(0, 300, mod), bt, 0),
		NewChunk(itemsDataMod(300, 120, mod), bt, 7<<32),
		NewChunk(itemsDataMod(420, 60, mod), bt, 3<<32),
	}, nil)}
}

// runItems runs the items query on strat under cfg over ins.
func runItems(t *testing.T, ins Inputs, strat Strategy, cfg Config, opts ExecOptions) *Result {
	t.Helper()
	cq, err := CompileStep(itemsQuery(), itemsEnv, strat, cfg, nil, "Q")
	if err != nil {
		t.Fatal(err)
	}
	prog := []*Compiled{cq}
	comp, idxs, err := ins.Bind(prog, cfg.Parallelism)
	if err != nil {
		t.Fatal(err)
	}
	res := Execute(context.Background(), prog, comp, idxs, NewRunContext(cfg), opts)
	if res.Failed() {
		t.Fatal(res.Err)
	}
	return res
}

// reply is the bytes WriteJSON writes for limit.
func reply(t *testing.T, res *Result, limit int) string {
	t.Helper()
	var b bytes.Buffer
	if _, _, err := res.WriteJSON(context.Background(), &b, limit, "", "\n"); err != nil {
		t.Error(err)
	}
	return b.String()
}

// TestLimitedReadDemandsItsLabels: the σ/π dictionary of the nested read is
// deferred, and a limited reply stitches it by demanding only the labels it
// returns — and, one at a time, those its comparator reads to break ties on
// id — never forcing the dictionary while those ties stay within its limit
// (ids modulo 300: a few rows share one), and forcing it once they exceed it
// (ids modulo 5: 96 rows share each); either way it writes the same bytes as
// the first rows of a full read.
func TestLimitedReadDemandsItsLabels(t *testing.T) {
	for _, strat := range []Strategy{Shred, ShredSkew} {
		for _, mod := range []int{300, 5} {
			res := runItems(t, itemsInputMod(mod), strat, DefaultConfig(), ExecOptions{})
			d := res.deferred["Q__big"]
			if d == nil || len(res.deferred) != 1 {
				t.Fatalf("%s: deferred %v, want Q__big alone", strat, res.deferred)
			}
			got := reply(t, res, 9)
			if forced := d.took != 0; forced != (mod == 5) {
				t.Fatalf("%s, ids modulo %d: a limited read forced the deferred dictionary: %v", strat, mod, forced)
			}
			if mod == 300 {
				rows, _, s, err := StitchTop(res, 9)
				if err != nil {
					t.Fatal(err)
				}
				if len(rows) != 9 || s.Demanded == 0 || s.Demanded >= s.Held || s.DemandTies == 0 {
					t.Fatalf("%s: %d rows, %d of %d input rows demanded, %d ties through demanded labels", strat, len(rows), s.Demanded, s.Held, s.DemandTies)
				}
			}
			whole := reply(t, runItems(t, itemsInputMod(mod), strat, DefaultConfig(), ExecOptions{}), 0)
			if first := strings.Join(strings.Split(whole, "\n")[:9], "\n"); got != first {
				t.Fatalf("%s, ids modulo %d: limit 9 wrote\n%s\nthe full read begins\n%s", strat, mod, got, first)
			}
			if text := res.Materialized().ExplainAnalyze(); !strings.Contains(text, "no runtime statistics") {
				t.Fatalf("%s: an uninstrumented result explained as analyzed:\n%s", strat, text)
			}
		}
	}
}

// TestDeferredReadsMatchTheForcedBytes: a run under a memory cap defers
// nothing — its EXPLAIN marks nothing and it forces every statement, as every
// run did before deferral — and a run that defers writes, read whole, before
// and after a limited read, and read through Materialized, the bytes the
// capped run writes.
func TestDeferredReadsMatchTheForcedBytes(t *testing.T) {
	capped := DefaultConfig()
	capped.MaxPartitionBytes = 1 << 40
	forced := runItems(t, itemsInput(), Shred, capped, ExecOptions{})
	if len(forced.deferred) != 0 || strings.Contains(forced.prog[0].Explain(), "[deferred]") {
		t.Fatalf("a capped run deferred %v:\n%s", forced.deferred, forced.prog[0].Explain())
	}
	want := reply(t, forced, 0)

	res := runItems(t, itemsInput(), Shred, DefaultConfig(), ExecOptions{})
	if !strings.Contains(res.prog[0].Explain(), "=== assignment Q__big [deferred] (") {
		t.Fatalf("EXPLAIN does not mark the deferred statement:\n%s", res.prog[0].Explain())
	}
	reply(t, res, 3)
	if got := reply(t, res, 0); got != want {
		t.Fatalf("the deferred run wrote\n%s\nthe capped run\n%s", got, want)
	}
	again := runItems(t, itemsInput(), Shred, DefaultConfig(), ExecOptions{})
	m := again.Materialized()
	if m.Elapsed <= again.Elapsed || m.StepElapsed[0] != m.Elapsed || again.deferred["Q__big"].took == 0 {
		t.Fatalf("Materialized timed %v over the run's %v (steps %v)", m.Elapsed, again.Elapsed, m.StepElapsed)
	}
	if got := reply(t, m, 0); got != want {
		t.Fatalf("the materialized run wrote\n%s\nthe capped run\n%s", got, want)
	}
}

// TestAnalyzedRunForcesAndCountsDemand: an analyzed run forces the deferred
// statement as it runs, so EXPLAIN ANALYZE reports its full actual_rows, and
// marks it with what limited reads demanded of it.
func TestAnalyzedRunForcesAndCountsDemand(t *testing.T) {
	res := runItems(t, itemsInput(), Shred, DefaultConfig(), ExecOptions{Analysis: plan.NewAnalysis()})
	if text := res.ExplainAnalyze(); !strings.Contains(text, "=== assignment Q__big [deferred] (analyzed) ===\n") {
		t.Fatalf("analyzed explain before any read:\n%s", text)
	}
	reply(t, res, 4)
	text := res.ExplainAnalyze()
	d := res.deferred["Q__big"]
	mark := "=== assignment Q__big [deferred] demanded="
	if !strings.Contains(text, mark) || d.labels.Load() == 0 || d.rows.Load() == 0 {
		t.Fatalf("analyzed explain after a limited read lacks %q:\n%s", mark, text)
	}
	_, sec, _ := strings.Cut(text, mark)
	_, sec, _ = strings.Cut(sec, "\n")
	root, _, _ := strings.Cut(sec, "\n")
	if want := d.full.Count(); !strings.Contains(root, "actual_rows="+strconv.FormatInt(want, 10)+" ") {
		t.Fatalf("the forced statement's root reports %q, want actual_rows=%d", root, want)
	}
}

// TestDeferredResultConcurrentReaders: one Result read limited and whole from
// two goroutines at once (run under -race) writes what each read writes
// alone.
func TestDeferredResultConcurrentReaders(t *testing.T) {
	base := runItems(t, itemsInput(), Shred, DefaultConfig(), ExecOptions{})
	wantAll, wantTop := reply(t, base, 0), reply(t, base, 6)
	for range 4 {
		res := runItems(t, itemsInput(), Shred, DefaultConfig(), ExecOptions{})
		var wg sync.WaitGroup
		var all, top string
		wg.Add(2)
		go func() { defer wg.Done(); all = reply(t, res, 0) }()
		go func() { defer wg.Done(); top = reply(t, res, 6) }()
		wg.Wait()
		if all != wantAll || top != wantTop {
			t.Fatalf("concurrent reads wrote\n%s\nand\n%s\nalone\n%s\nand\n%s", all, top, wantAll, wantTop)
		}
	}
}

// TestPositionalChainIsNotDeferred: labelClosed defers a plan that is
// partition-local and label-closed — σ/π/ext, the probe side of a broadcast
// ⋈, a Γ or dedup reduced in place whose key holds the label, over an input
// dictionary placed on its label or a flat input the label is minted from —
// and nothing else: not a chain holding addIndex, whose IDs number rows per
// partition, an exchanged Γ, a Γ whose key omits the label, a shuffle ⋈, a
// label the plan does not pass through or nullifies, an
// input not placed on its label, nor a label minted over a label column or
// from a dictionary.
func TestPositionalChainIsNotDeferred(t *testing.T) {
	cols := []plan.Column{{Name: "label", Type: nrc.LabelT}, {Name: "k", Type: nrc.IntT}}
	scan := func(placed []int) *plan.Scan {
		if placed == nil {
			return &plan.Scan{Input: "D__items", Cols: cols}
		}
		return &plan.Scan{Input: "D__items", Cols: cols, Placed: [][]int{placed}}
	}
	col := func(idx int, t nrc.Type) *plan.Col { return &plan.Col{Idx: idx, Name: cols[idx].Name, Typ: t} }
	label := func(idx int) []plan.NamedExpr { return []plan.NamedExpr{{Name: "label", Expr: col(idx, nrc.LabelT)}} }
	flat := &plan.Scan{Input: "S__F", Cols: []plan.Column{{Name: "k", Type: nrc.IntT}, {Name: "l", Type: nrc.LabelT}}}
	mint := func(in plan.Op, args ...int) plan.Op {
		mk := &plan.MkLabel{Site: 1}
		for _, a := range args {
			mk.Args = append(mk.Args, &plan.Col{Idx: a, Typ: in.Columns()[a].Type})
		}
		return &plan.Project{In: in, Outs: []plan.NamedExpr{{Name: "label", Expr: mk}}}
	}
	build := &plan.Scan{Input: "P__F", Cols: []plan.Column{{Name: "p", Type: nrc.IntT}}}
	join := func(l, r plan.Op, m plan.JoinMethod) *plan.Join {
		return &plan.Join{L: l, R: r, LCols: []int{1}, RCols: []int{0}, Cost: &plan.Costs{Method: m}}
	}
	nest := func(in plan.Op, key []int, local []int) *plan.Nest {
		return &plan.Nest{In: in, GroupCols: key, ValueCols: []int{1}, Agg: plan.AggSum, Local: local}
	}
	dicts := []string{"D__items"}
	for _, c := range []struct {
		what string
		op   plan.Op
		want string
	}{
		{"π over a placed scan", &plan.Project{In: scan(labelKey), Outs: label(0)}, "D__items"},
		{"π over ext over σ", &plan.Project{In: &plan.Extend{In: &plan.Select{In: scan(labelKey), Pred: &plan.ConstE{Val: true, Typ: nrc.BoolT}}}, Outs: label(0)}, "D__items"},
		{"broadcast ⋈ probed by the label (skew-aware or not: it splits nothing)", join(scan(labelKey), build, plan.JoinBroadcast), "D__items"},
		{"Γ in place keyed by the label", nest(scan(labelKey), []int{0}, labelKey), "D__items"},
		{"dedup in place", &plan.DedupOp{In: scan(labelKey), Local: labelKey}, "D__items"},
		{"label minted from a flat input", mint(flat, 0), "S__F"},
		{"addIndex", &plan.Project{In: &plan.AddIndex{In: scan(labelKey), Name: "_id1"}, Outs: label(0)}, ""},
		{"exchanged Γ", nest(scan(labelKey), []int{0}, nil), ""},
		{"combined dedup", &plan.DedupOp{In: scan(labelKey), Combine: true}, ""},
		{"Γ in place keyed without the label", &plan.Project{In: &plan.Nest{In: scan(labelKey), GroupCols: []int{1}, CarryCols: []int{0}, ValueCols: []int{1}, Agg: plan.AggSum, Local: labelKey}, Outs: label(1)}, ""},
		{"shuffle ⋈", join(scan(labelKey), build, plan.JoinShuffle), ""},
		{"⋈ the executor decides", &plan.Join{L: scan(labelKey), R: build, LCols: []int{1}, RCols: []int{0}}, ""},
		{"broadcast ⋈ building on the label", &plan.Project{In: join(build, scan(labelKey), plan.JoinBroadcast), Outs: label(1)}, ""},
		{"build side reading the label's input", join(scan(labelKey), scan(labelKey), plan.JoinBroadcast), ""},
		{"label not passed through", &plan.Project{In: scan(labelKey), Outs: label(1)}, ""},
		{"label nullified", &plan.Select{In: scan(labelKey), Pred: &plan.ConstE{Val: true, Typ: nrc.BoolT}, NullifyCols: []int{0}}, ""},
		{"unplaced scan", &plan.Project{In: scan(nil), Outs: label(0)}, ""},
		{"not an input dictionary", &plan.Project{In: &plan.Scan{Input: "X", Cols: cols, Placed: [][]int{labelKey}}, Outs: label(0)}, ""},
		{"label minted over a label", mint(flat, 1), ""},
		{"label minted from a dictionary", mint(scan(labelKey), 1), ""},
	} {
		got := ""
		if src := labelClosed(c.op, dicts); src != nil {
			got = src.input
		}
		if got != c.want {
			t.Errorf("%s: labelClosed reads %q, want %q", c.what, got, c.want)
		}
	}
}
