package trance_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/trance-go/trance"
)

func prepEnv() trance.Env {
	return trance.Env{"R": trance.BagOf(trance.Tup(
		"k", trance.IntT,
		"items", trance.BagOf(trance.Tup("v", trance.IntT)),
	))}
}

// prepQuery nests per row: ⟨k, big := {⟨v⟩ | v ∈ items, v > lo}⟩.
func prepQuery(lo int64) trance.Expr {
	return trance.ForIn("r", trance.V("R"),
		trance.SingOf(trance.Record(
			"k", trance.P(trance.V("r"), "k"),
			"big", trance.ForIn("it", trance.P(trance.V("r"), "items"),
				trance.IfThen(trance.GtOf(trance.P(trance.V("it"), "v"), trance.C(lo)),
					trance.SingOf(trance.V("it")))),
		)))
}

func prepInputs(shift int64) map[string]trance.Bag {
	items := func(vs ...int64) trance.Bag {
		b := make(trance.Bag, len(vs))
		for i, v := range vs {
			b[i] = trance.Tuple{v + shift}
		}
		return b
	}
	return map[string]trance.Bag{"R": {
		trance.Tuple{int64(1), items(5, 20, 35)},
		trance.Tuple{int64(2), items(50)},
		trance.Tuple{int64(3), trance.Bag{}},
	}}
}

func collectBag(res *trance.Result) trance.Bag {
	out := make(trance.Bag, 0)
	for _, r := range res.Output.CollectSorted() {
		out = append(out, trance.Tuple(r))
	}
	return out
}

// Prepare must compile each (query, strategy) exactly once, no matter how
// many goroutines race on first use, and later Runs must hit the cache.
func TestPrepareCompilesEachStrategyOnce(t *testing.T) {
	pq, err := trance.Prepare(prepQuery(7001), trance.PrepareOptions{Name: "compile-once", Env: prepEnv()})
	if err != nil {
		t.Fatal(err)
	}
	before := trance.Counters()
	strategies := []trance.Strategy{trance.Standard, trance.Shred, trance.ShredUnshred}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			strat := strategies[g%len(strategies)]
			if _, err := pq.Run(context.Background(), pq.BindData(prepInputs(0)), strat); err != nil {
				errs <- fmt.Errorf("goroutine %d (%v): %w", g, strat, err)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	after := trance.Counters()
	if got := after["plan_cache.compiles"] - before["plan_cache.compiles"]; got != int64(len(strategies)) {
		t.Fatalf("want exactly %d compilations (one per strategy), got %d", len(strategies), got)
	}
	// Re-running hits the cache without compiling.
	if _, err := pq.Run(context.Background(), pq.BindData(prepInputs(0)), trance.Standard); err != nil {
		t.Fatal(err)
	}
	final := trance.Counters()
	if final["plan_cache.compiles"] != after["plan_cache.compiles"] {
		t.Fatalf("re-run recompiled: %d -> %d", after["plan_cache.compiles"], final["plan_cache.compiles"])
	}
	if final["plan_cache.hits"] <= after["plan_cache.hits"]-1 {
		t.Fatalf("re-run should hit the cache: hits %d -> %d", after["plan_cache.hits"], final["plan_cache.hits"])
	}
}

// ≥8 goroutines pushing different datasets through one PreparedQuery under
// several strategies must each get exactly the sequential result.
func TestPreparedQueryConcurrentRuns(t *testing.T) {
	pq, err := trance.Prepare(prepQuery(7002), trance.PrepareOptions{
		Name:       "concurrent-one",
		Env:        prepEnv(),
		Strategies: []trance.Strategy{trance.Standard, trance.Shred, trance.ShredUnshred},
	})
	if err != nil {
		t.Fatal(err)
	}
	strategies := []trance.Strategy{trance.Standard, trance.ShredUnshred}

	// Sequential oracle per dataset shift.
	want := map[int64]trance.Bag{}
	for shift := int64(0); shift < 4; shift++ {
		res, err := pq.Run(context.Background(), pq.BindData(prepInputs(shift)), trance.Standard)
		if err != nil {
			t.Fatal(err)
		}
		want[shift] = collectBag(res)
	}

	const goroutines = 12
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			shift := int64(g % 4)
			strat := strategies[g%len(strategies)]
			res, err := pq.Run(context.Background(), pq.BindData(prepInputs(shift)), strat)
			if err != nil {
				errs <- fmt.Errorf("goroutine %d (%v): %w", g, strat, err)
				return
			}
			if got := collectBag(res); !trance.ValuesEqual(got, want[shift]) {
				errs <- fmt.Errorf("goroutine %d (%v, shift %d): got %s want %s",
					g, strat, shift, trance.FormatValue(got), trance.FormatValue(want[shift]))
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// Distinct prepared queries sharing one explicit Pool run concurrently and
// still agree with their sequential results.
func TestDistinctPreparedQueriesSharePool(t *testing.T) {
	pool := trance.NewPool(4)
	var pqs []*trance.PreparedQuery
	for i, lo := range []int64{7103, 7110, 7125} {
		pq, err := trance.Prepare(prepQuery(lo), trance.PrepareOptions{
			Name: fmt.Sprintf("shared-pool-%d", i),
			Env:  prepEnv(),
			Pool: pool,
		})
		if err != nil {
			t.Fatal(err)
		}
		pqs = append(pqs, pq)
	}
	want := make([]trance.Bag, len(pqs))
	for i, pq := range pqs {
		res, err := pq.Run(context.Background(), pq.BindData(prepInputs(7100)), trance.ShredUnshred)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = collectBag(res)
	}

	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, len(pqs)*rounds)
	for round := 0; round < rounds; round++ {
		for i, pq := range pqs {
			wg.Add(1)
			go func(i int, pq *trance.PreparedQuery) {
				defer wg.Done()
				res, err := pq.Run(context.Background(), pq.BindData(prepInputs(7100)), trance.ShredUnshred)
				if err != nil {
					errs <- fmt.Errorf("query %d: %w", i, err)
					return
				}
				if got := collectBag(res); !trance.ValuesEqual(got, want[i]) {
					errs <- fmt.Errorf("query %d: got %s want %s",
						i, trance.FormatValue(got), trance.FormatValue(want[i]))
				}
			}(i, pq)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// A malformed query fails Prepare with an error; malformed data fails Run
// with an error (recovered panic) — neither crashes the process.
func TestPrepareAndRunDegradeToErrors(t *testing.T) {
	// Unknown input: typecheck error at Prepare.
	bad := trance.ForIn("x", trance.V("Missing"), trance.SingOf(trance.Record("a", trance.C(int64(1)))))
	if _, err := trance.Prepare(bad, trance.PrepareOptions{Name: "bad", Env: trance.Env{}}); err == nil {
		t.Fatal("Prepare must reject a query over unknown inputs")
	}

	// Well-typed query, corrupt data: the engine panic must come back as an
	// error from Run.
	env := trance.Env{"R": trance.BagOf(trance.Tup("a", trance.IntT))}
	q := trance.ForIn("x", trance.V("R"),
		trance.SingOf(trance.Record("b", trance.AddOf(trance.P(trance.V("x"), "a"), trance.C(int64(1))))))
	pq, err := trance.Prepare(q, trance.PrepareOptions{Name: "corrupt-data", Env: env})
	if err != nil {
		t.Fatal(err)
	}
	_, err = pq.Run(context.Background(), pq.BindData(map[string]trance.Bag{"R": {trance.Tuple{int(7)}}}), trance.Standard)
	if err == nil {
		t.Fatal("corrupt input data must fail the run")
	}
	if !strings.Contains(err.Error(), "panic") {
		t.Fatalf("error should mention the recovered panic: %v", err)
	}
	// The prepared query stays healthy for good data afterwards.
	res, err := pq.Run(context.Background(), pq.BindData(map[string]trance.Bag{"R": {trance.Tuple{int64(7)}}}), trance.Standard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Count() != 1 {
		t.Fatalf("want 1 row, got %d", res.Output.Count())
	}
}

// OutputSchema reflects the route: nested schema for unshredding routes,
// label-bearing top schema for Shred.
func TestPreparedOutputSchema(t *testing.T) {
	pq, err := trance.Prepare(prepQuery(7003), trance.PrepareOptions{Name: "cols", Env: prepEnv()})
	if err != nil {
		t.Fatal(err)
	}
	std, err := pq.OutputSchema(trance.Standard)
	if err != nil {
		t.Fatal(err)
	}
	if len(std) != 2 || std[0].Name != "k" || std[1].Name != "big" {
		t.Fatalf("standard columns: %+v", std)
	}
	sh, err := pq.OutputSchema(trance.Shred)
	if err != nil {
		t.Fatal(err)
	}
	if len(sh) != 2 || sh[1].Name != "big" || sh[1].Type.String() != "Label" {
		t.Fatalf("shred top columns should carry a label: %+v", sh)
	}
}

// Runs sharing one BindData must agree with a run over a fresh BindData while
// converting/shredding the inputs only once per route.
func TestSharedBindMatchesFreshBind(t *testing.T) {
	pq, err := trance.Prepare(prepQuery(7004), trance.PrepareOptions{Name: "bound", Env: prepEnv()})
	if err != nil {
		t.Fatal(err)
	}
	inputs := prepInputs(0)
	data := pq.BindData(inputs)
	for _, strat := range []trance.Strategy{trance.Standard, trance.Shred, trance.ShredUnshred} {
		want, err := pq.Run(context.Background(), pq.BindData(inputs), strat)
		if err != nil {
			t.Fatalf("%v run: %v", strat, err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := pq.Run(context.Background(), data, strat)
				if err != nil {
					errs <- err
					return
				}
				if !trance.ValuesEqual(collectBag(got), collectBag(want)) {
					errs <- fmt.Errorf("%v: shared-bind result differs from a fresh bind", strat)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}

// The compilation cache is bounded: over-filling it evicts the oldest
// entries instead of growing without limit, and evicted queries still work
// (they recompile on next use).
func TestPlanCacheBounded(t *testing.T) {
	defer trance.SetMaxPlanCacheEntriesForTest(2)()
	queries := []*trance.PreparedQuery{}
	for i, lo := range []int64{7201, 7202, 7203, 7204} {
		pq, err := trance.Prepare(prepQuery(lo), trance.PrepareOptions{
			Name:       fmt.Sprintf("bounded-%d", i),
			Env:        prepEnv(),
			Strategies: []trance.Strategy{trance.Standard},
		})
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, pq)
	}
	stats := trance.Counters()
	if stats["plan_cache.entries"] > 2 {
		t.Fatalf("cache exceeded its bound: %d entries", stats["plan_cache.entries"])
	}
	if stats["plan_cache.evictions"] < 2 {
		t.Fatalf("want at least 2 evictions, got %d", stats["plan_cache.evictions"])
	}
	// The first (evicted) query still runs — it just recompiles.
	res, err := queries[0].Run(context.Background(), queries[0].BindData(prepInputs(0)), trance.Standard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Count() != 3 {
		t.Fatalf("want 3 rows, got %d", res.Output.Count())
	}
}

// TestQueryIsTheOneStepProgram: Prepare, PreparePipeline over the one step
// "Q" and Run all compile a query one way, under one fingerprint, so the plan
// cache compiles it once per strategy between them.
func TestQueryIsTheOneStepProgram(t *testing.T) {
	trance.ResetPlanCache()
	strat := trance.ShredUnshred
	opts := trance.PrepareOptions{Env: prepEnv(), Strategies: []trance.Strategy{strat}}
	pq, err := trance.Prepare(prepQuery(5), opts)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := trance.PreparePipeline([]trance.PipelineStep{{Name: "Q", Expr: prepQuery(5)}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if pq.Fingerprint() != pp.Fingerprint() {
		t.Fatalf("a query and its one-step program fingerprint differently: %s vs %s", pq.Fingerprint(), pp.Fingerprint())
	}
	res := trance.Run(trance.Job{Query: prepQuery(5), Env: prepEnv(), Inputs: prepInputs(0)}, strat, trance.DefaultConfig())
	if res.Failed() {
		t.Fatal(res.Err)
	}
	if c := trance.Counters(); c["plan_cache.compiles"] != 1 || c["plan_cache.hits"] != 2 {
		t.Fatalf("compiles=%d hits=%d, want one compilation served twice from the cache", c["plan_cache.compiles"], c["plan_cache.hits"])
	}
}

// TestQueryOverInputNamedQ: a query's one step is named "Q" unless an input
// already is, so a query over an input named Q prepares and runs through Run,
// Prepare, a session and a session's text alike; a program step that reuses a
// bound name is rejected.
func TestQueryOverInputNamedQ(t *testing.T) {
	env := trance.Env{"Q": prepEnv()["R"]}
	inputs := map[string]trance.Bag{"Q": prepInputs(0)["R"]}
	const text = "for r in Q union { { k := r.k, big := for it in r.items union if it.v > 5 then { it } } }"
	mk := func() trance.Expr {
		q, err := trance.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	want := trance.LocalEval(mustCheck(t, mk(), env), inputs)

	cat := trance.NewCatalog()
	if err := cat.Register("Q", env["Q"], inputs["Q"]); err != nil {
		t.Fatal(err)
	}
	sess := cat.NewSession(trance.SessionOptions{})
	for _, strat := range []trance.Strategy{trance.Standard, trance.ShredUnshred, trance.ShredUnshredSkew} {
		ctx := context.Background()
		runs := map[string]func() (*trance.Result, error){
			"Run": func() (*trance.Result, error) {
				res := trance.Run(trance.Job{Query: mk(), Env: env, Inputs: inputs}, strat, trance.DefaultConfig())
				return res, res.Err
			},
			"Prepare": func() (*trance.Result, error) {
				pq, err := trance.Prepare(mk(), trance.PrepareOptions{Env: env})
				if err != nil {
					return nil, err
				}
				return pq.Run(ctx, pq.BindData(inputs), strat)
			},
			"session": func() (*trance.Result, error) {
				sq, err := sess.Prepare(mk())
				if err != nil {
					return nil, err
				}
				return sq.Run(ctx, strat)
			},
			"text": func() (*trance.Result, error) {
				sq, err := sess.PrepareText("", text)
				if err != nil {
					return nil, err
				}
				return sq.Run(ctx, strat)
			},
		}
		for name, run := range runs {
			res, err := run()
			if err != nil {
				t.Fatalf("%s %s: %v", name, strat, err)
			}
			if got := collectBag(res); !trance.ValuesEqual(got, want) {
				t.Fatalf("%s %s: got %s, want %s", name, strat, trance.FormatValue(got), trance.FormatValue(want))
			}
		}
	}

	_, err := trance.PreparePipeline([]trance.PipelineStep{{Name: "Q", Expr: mk()}}, trance.PrepareOptions{Env: env})
	if err == nil || !strings.Contains(err.Error(), "already bound") {
		t.Fatalf("a step named like an input must be rejected, got %v", err)
	}
}

func mustCheck(t *testing.T, q trance.Expr, env trance.Env) trance.Expr {
	t.Helper()
	if _, err := trance.Check(q, env); err != nil {
		t.Fatal(err)
	}
	return q
}
