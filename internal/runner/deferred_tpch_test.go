package runner_test

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"github.com/trance-go/trance/internal/runner"
	"github.com/trance-go/trance/internal/shred"
	"github.com/trance-go/trance/internal/tpch"
	"github.com/trance-go/trance/internal/value"
)

// tpchDeferred is the level-2 TPC-H class run shredded over a small generated
// database under cfg, planned with the database's statistics as a session
// plans it: flat-to-nested mints its dictionaries' labels from the flat
// inputs' columns, nested-to-nested reads placed input dictionaries, its
// lineitems through a broadcast ⋈ with Part and a Γ+ reduced in place.
func tpchDeferred(t *testing.T, class tpch.QueryClass, cfg runner.Config) *runner.Result {
	return tpchDeferredUnder(t, class, runner.Shred, cfg)
}

// tpchDeferredUnder is tpchDeferred run by strat, Shred or ShredSkew.
func tpchDeferredUnder(t *testing.T, class tpch.QueryClass, strat runner.Strategy, cfg runner.Config) *runner.Result {
	t.Helper()
	tables := tpch.Generate(tpch.Config{Customers: 40, OrdersPerCustomer: 5, LinesPerOrder: 4, Parts: 30, Seed: 3})
	inputs := tables.Inputs()
	if class == tpch.NestedToNested {
		inputs = map[string]value.Bag{"NDB": tpch.BuildNested(tables, 2, true), "Part": tables.Part}
	}
	env := tpch.Env(class, 2, false)
	ests := collectTpchStats(env, inputs)
	for name, te := range ests {
		ests[shred.MatName(name, nil)] = te // a top component carries its input's
	}
	cq, err := runner.CompileStep(tpch.Query(class, 2, false), env, strat, cfg, ests, "Q")
	if err != nil {
		t.Fatal(err)
	}
	prog := []*runner.Compiled{cq}
	comp, idxs, err := runner.NewInputs(inputs, env).Bind(prog, cfg.Parallelism)
	if err != nil {
		t.Fatal(err)
	}
	res := runner.Execute(context.Background(), prog, comp, idxs, runner.NewRunContext(cfg), runner.ExecOptions{})
	if res.Failed() {
		t.Fatal(res.Err)
	}
	return res
}

// writeJSON is what a reply writes of res for limit.
func writeJSON(t *testing.T, res *runner.Result, limit int) string {
	t.Helper()
	var b bytes.Buffer
	if _, _, err := res.WriteJSON(context.Background(), &b, limit, "", "\n"); err != nil {
		t.Error(err)
	}
	return b.String()
}

var deferredClasses = []tpch.QueryClass{tpch.FlatToNested, tpch.NestedToNested}

// TestTopReadRunsNoDeferredStatement: both dictionaries of each class are
// deferred, skew-aware or not — a skew-aware run joins a broadcast ⋈ as the
// plain run does, splitting nothing — and a Result read only through Top —
// the shred reply — runs neither, limited or whole.
func TestTopReadRunsNoDeferredStatement(t *testing.T) {
	for _, strat := range []runner.Strategy{runner.Shred, runner.ShredSkew} {
		for _, class := range deferredClasses {
			res := tpchDeferredUnder(t, class, strat, runner.DefaultConfig())
			writeJSON(t, res.Top(), 20)
			writeJSON(t, res.Top(), 0)
			if n, forced, labels := runner.DeferredRan(res); n != 2 || forced != 0 || labels != 0 {
				t.Fatalf("%s %s: %d deferred statements; top reads forced %d and demanded %d labels", strat, class, n, forced, labels)
			}
		}
	}
}

// TestDeferredTPCHReadsWriteTheForcedBytes: a deferred run writes, limited
// and whole, the bytes a run under a memory cap writes — which defers
// nothing and forces every statement as it runs, as every run did before
// deferral. A read of 5 of the 40 customers demands without forcing; one of
// 30, whose labels' rows are most of each dictionary's source, forces both
// dictionaries instead.
func TestDeferredTPCHReadsWriteTheForcedBytes(t *testing.T) {
	capped := runner.DefaultConfig()
	capped.MaxPartitionBytes = 1 << 40
	for _, strat := range []runner.Strategy{runner.Shred, runner.ShredSkew} {
		testDeferredTPCHReadsWriteTheForcedBytes(t, strat, capped)
	}
}

func testDeferredTPCHReadsWriteTheForcedBytes(t *testing.T, strat runner.Strategy, capped runner.Config) {
	for _, class := range deferredClasses {
		forced := tpchDeferredUnder(t, class, strat, capped)
		if n, _, _ := runner.DeferredRan(forced); n != 0 {
			t.Fatalf("%s: a capped run deferred %d statements", class, n)
		}
		for _, c := range []struct{ limit, forced int }{{5, 0}, {30, 2}} {
			res := tpchDeferredUnder(t, class, strat, runner.DefaultConfig())
			if got, want := writeJSON(t, res, c.limit), writeJSON(t, forced, c.limit); got != want {
				t.Fatalf("%s: limit %d wrote\n%s\nthe capped run\n%s", class, c.limit, got, want)
			}
			if _, f, labels := runner.DeferredRan(res); f != c.forced || (f == 0) != (labels > 0) {
				t.Fatalf("%s: a read of %d forced %d statements, demanded %d labels; want %d forced", class, c.limit, f, labels, c.forced)
			}
			if got, want := writeJSON(t, res, 0), writeJSON(t, forced, 0); got != want {
				t.Fatalf("%s: the whole read wrote\n%s\nthe capped run\n%s", class, got, want)
			}
		}
	}
}

// TestDeferredTPCHConcurrentReaders: one Result of each class read limited
// and whole from two goroutines at once (run under -race) writes what each
// read writes alone.
func TestDeferredTPCHConcurrentReaders(t *testing.T) {
	for _, class := range deferredClasses {
		base := tpchDeferred(t, class, runner.DefaultConfig())
		wantAll, wantTop := writeJSON(t, base, 0), writeJSON(t, base, 5)
		for range 3 {
			res := tpchDeferred(t, class, runner.DefaultConfig())
			var wg sync.WaitGroup
			var all, top string
			wg.Add(2)
			go func() { defer wg.Done(); all = writeJSON(t, res, 0) }()
			go func() { defer wg.Done(); top = writeJSON(t, res, 5) }()
			wg.Wait()
			if all != wantAll || top != wantTop {
				t.Fatalf("%s: concurrent reads wrote\n%s\nand\n%s\nalone\n%s\nand\n%s", class, all, top, wantAll, wantTop)
			}
		}
	}
}

// TestMaterializedCountsDeferredWork: Materialized forces every deferred
// statement and meters it as the run: nested-to-nested's broadcast of Part
// and its Γ+ reduced in place show in the view's metrics, not the run's.
func TestMaterializedCountsDeferredWork(t *testing.T) {
	res := tpchDeferred(t, tpch.NestedToNested, runner.DefaultConfig())
	m := res.Materialized()
	if res.Metrics.BroadcastBytes != 0 || m.Metrics.BroadcastBytes == 0 || m.Metrics.SkippedShuffles != res.Metrics.SkippedShuffles+1 {
		t.Fatalf("run %s, materialized %s", res.Metrics, m.Metrics)
	}
	if _, forced, _ := runner.DeferredRan(res); forced != 2 || !strings.Contains(m.Metrics.String(), "skipped=1") {
		t.Fatalf("Materialized forced %d statements: %s", forced, m.Metrics)
	}
}
