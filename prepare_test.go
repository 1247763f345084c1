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

// prepCatalog is a catalog holding prepInputs(shift)'s R.
func prepCatalog(t testing.TB, shift int64) *trance.Catalog {
	t.Helper()
	cat := trance.NewCatalog()
	if err := cat.Register("R", prepEnv()["R"], prepInputs(shift)["R"]); err != nil {
		t.Fatal(err)
	}
	return cat
}

// prepSessionQuery prepares q in a fresh default session over
// prepCatalog(shift).
func prepSessionQuery(t testing.TB, shift int64, name string, q trance.Expr) *trance.SessionQuery {
	t.Helper()
	sq, err := prepCatalog(t, shift).NewSession(trance.SessionOptions{}).PrepareNamed(name, q)
	if err != nil {
		t.Fatal(err)
	}
	return sq
}

// A session query must compile each (query, strategy) exactly once, no
// matter how many goroutines race on first use, and later Runs must hit the
// cache.
func TestPrepareCompilesEachStrategyOnce(t *testing.T) {
	sq := prepSessionQuery(t, 0, "compile-once", prepQuery(7001))
	before := trance.Counters()
	strategies := []trance.Strategy{trance.Standard, trance.Shred, trance.StandardSkew}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			strat := strategies[g%len(strategies)]
			if _, err := sq.Run(context.Background(), strat); err != nil {
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
	if _, err := sq.Run(context.Background(), trance.Standard); err != nil {
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

// TestOneCompileReadsBothForms: the paper's Shred and Shred+Unshred are two
// reads of one shredded run — Output nested, Top the top bag — so running a
// session query under both names and reading both forms compiles once, and
// the schema OutputSchema reports is the nested one the run carries.
func TestOneCompileReadsBothForms(t *testing.T) {
	sq := prepSessionQuery(t, 0, "both-forms", prepQuery(7006))
	want := trance.LocalEval(mustCheck(t, prepQuery(7006), prepEnv()), prepInputs(0))
	before := trance.Counters()["plan_cache.compiles"]
	for _, name := range []string{"shred", "shred+unshred"} {
		strat, ok := trance.ParseStrategy(name)
		if !ok || strat != trance.Shred {
			t.Fatalf("%s parses to %s, %t; want SHRED", name, strat, ok)
		}
		res, err := sq.Run(context.Background(), strat)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := collectBag(res); !trance.ValuesEqual(got, want) {
			t.Fatalf("%s: Output %s, want %s", name, trance.FormatValue(got), trance.FormatValue(want))
		}
		top := res.Top()
		if top.Output.Count() != res.Output.Count() || fmt.Sprint(top.Columns) == fmt.Sprint(res.Columns) {
			t.Fatalf("%s: Top holds %d rows under %v, Output %d under %v", name, top.Output.Count(), top.Columns, res.Output.Count(), res.Columns)
		}
		for _, r := range top.Output.CollectSorted() {
			if _, ok := r[1].(trance.Label); !ok {
				t.Fatalf("%s: top bag row %v holds no label in place of its inner bag", name, r)
			}
		}
		cols, err := sq.Prepared().OutputSchema(strat)
		if err != nil || fmt.Sprint(cols) != fmt.Sprint(res.Columns) {
			t.Fatalf("%s: OutputSchema %v (%v), the run's columns %v", name, cols, err, res.Columns)
		}
	}
	if got := trance.Counters()["plan_cache.compiles"] - before; got != 1 {
		t.Fatalf("%d compilations for shred and shred+unshred read both ways, want 1", got)
	}
}

// TestSessionsSizedApartShareThePlan: the plan cache leaves parallelism out of
// its key, so sessions over one catalog sized to different partition counts
// run the same compiled shredded program; each run places the input's
// dictionaries over its own partitions, and every size gets the one answer.
func TestSessionsSizedApartShareThePlan(t *testing.T) {
	cat := prepCatalog(t, 0)
	before := trance.Counters()
	var want trance.Bag
	for _, par := range []int{4, 8, 4, 1} {
		cfg := trance.DefaultConfig()
		cfg.Parallelism = par
		sq, err := cat.NewSession(trance.SessionOptions{Config: &cfg}).PrepareNamed("sized-apart", prepQuery(7003))
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []trance.Strategy{trance.Shred, trance.ShredSkew} {
			res, err := sq.Run(context.Background(), strat)
			if err != nil {
				t.Fatalf("parallelism %d, %s: %v", par, strat, err)
			}
			if got := collectBag(res); want == nil {
				want = got
			} else if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("parallelism %d answers %v, parallelism 4 %v", par, got, want)
			}
		}
	}
	if got := trance.Counters()["plan_cache.compiles"] - before["plan_cache.compiles"]; got != 2 {
		t.Fatalf("%d compilations, want 2 (one per strategy) shared by every session", got)
	}
}

// ≥8 goroutines pushing different datasets — one catalog dataset per shift,
// bound to R by each session — through session queries of one query under
// several strategies must each get exactly the sequential result.
func TestPreparedQueryConcurrentRuns(t *testing.T) {
	cat := trance.NewCatalog()
	queries := map[int64]*trance.SessionQuery{}
	want := map[int64]trance.Bag{}
	for shift := int64(0); shift < 4; shift++ {
		ds := fmt.Sprintf("R%d", shift)
		if err := cat.Register(ds, prepEnv()["R"], prepInputs(shift)["R"]); err != nil {
			t.Fatal(err)
		}
		sq, err := cat.NewSession(trance.SessionOptions{Bindings: map[string]string{"R": ds}}).PrepareNamed("concurrent-one", prepQuery(7002))
		if err != nil {
			t.Fatal(err)
		}
		// Sequential oracle per dataset shift.
		res, err := sq.Run(context.Background(), trance.Standard)
		if err != nil {
			t.Fatal(err)
		}
		queries[shift], want[shift] = sq, collectBag(res)
	}
	strategies := []trance.Strategy{trance.Standard, trance.Shred}

	const goroutines = 12
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			shift := int64(g % 4)
			strat := strategies[g%len(strategies)]
			res, err := queries[shift].Run(context.Background(), strat)
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

// Distinct session queries sharing one explicit Pool run concurrently and
// still agree with their sequential results.
func TestDistinctPreparedQueriesSharePool(t *testing.T) {
	sess := prepCatalog(t, 7100).NewSession(trance.SessionOptions{Pool: trance.NewPool(4)})
	var sqs []*trance.SessionQuery
	for i, lo := range []int64{7103, 7110, 7125} {
		sq, err := sess.PrepareNamed(fmt.Sprintf("shared-pool-%d", i), prepQuery(lo))
		if err != nil {
			t.Fatal(err)
		}
		sqs = append(sqs, sq)
	}
	want := make([]trance.Bag, len(sqs))
	for i, sq := range sqs {
		res, err := sq.Run(context.Background(), trance.Shred)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = collectBag(res)
	}

	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, len(sqs)*rounds)
	for round := 0; round < rounds; round++ {
		for i, sq := range sqs {
			wg.Add(1)
			go func(i int, sq *trance.SessionQuery) {
				defer wg.Done()
				res, err := sq.Run(context.Background(), trance.Shred)
				if err != nil {
					errs <- fmt.Errorf("query %d: %w", i, err)
					return
				}
				if got := collectBag(res); !trance.ValuesEqual(got, want[i]) {
					errs <- fmt.Errorf("query %d: got %s want %s",
						i, trance.FormatValue(got), trance.FormatValue(want[i]))
				}
			}(i, sq)
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
	env := trance.Env{"R": trance.BagOf(trance.Tup("a", trance.IntT))}
	good := trance.Bag{trance.Tuple{int64(7)}}
	cat := trance.NewCatalog()
	if err := cat.Register("R", env["R"], good); err != nil {
		t.Fatal(err)
	}
	sess := cat.NewSession(trance.SessionOptions{})

	// Unknown input and unknown field: errors at Prepare.
	bad := trance.ForIn("x", trance.V("Missing"), trance.SingOf(trance.Record("a", trance.C(int64(1)))))
	if _, err := sess.PrepareNamed("bad", bad); err == nil {
		t.Fatal("Prepare must reject a query over unknown inputs")
	}
	noField := trance.ForIn("x", trance.V("R"), trance.SingOf(trance.Record("a", trance.P(trance.V("x"), "nope"))))
	if _, err := sess.PrepareNamed("bad", noField); err == nil {
		t.Fatal("Prepare must reject a query reading an unknown field")
	}

	// Well-typed query, corrupt data: the catalog validates what it
	// registers, so the data is corrupted behind its back — a raw Go int is
	// not a value-model scalar. The engine panic must come back as an error
	// from Run.
	q := trance.ForIn("x", trance.V("R"),
		trance.SingOf(trance.Record("b", trance.AddOf(trance.P(trance.V("x"), "a"), trance.C(int64(1))))))
	corrupt := trance.Bag{trance.Tuple{int64(7)}}
	cat.Drop("R")
	if err := cat.Register("R", env["R"], corrupt); err != nil {
		t.Fatal(err)
	}
	corrupt[0].(trance.Tuple)[0] = int(7)
	sq, err := sess.PrepareNamed("corrupt-data", q)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sq.Run(context.Background(), trance.Standard)
	if err == nil {
		t.Fatal("corrupt input data must fail the run")
	}
	if !strings.Contains(err.Error(), "panic") {
		t.Fatalf("error should mention the recovered panic: %v", err)
	}
	// The session query stays healthy for good data afterwards.
	cat.Drop("R")
	if err := cat.Register("R", env["R"], good); err != nil {
		t.Fatal(err)
	}
	res, err := sq.Run(context.Background(), trance.Standard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Count() != 1 {
		t.Fatalf("want 1 row, got %d", res.Output.Count())
	}
}

// OutputSchema is the nested answer's schema on every route; a shredded run's
// Top view carries the label-bearing top-bag schema.
func TestPreparedOutputSchema(t *testing.T) {
	sq := prepSessionQuery(t, 0, "cols", prepQuery(7003))
	pq := sq.Prepared()
	for _, strat := range []trance.Strategy{trance.Standard, trance.Shred} {
		cols, err := pq.OutputSchema(strat)
		if err != nil {
			t.Fatal(err)
		}
		if len(cols) != 2 || cols[0].Name != "k" || cols[1].Name != "big" || cols[1].Type.String() != "Bag(⟨v: int⟩)" {
			t.Fatalf("%s columns: %+v", strat, cols)
		}
	}
	res, err := sq.Run(context.Background(), trance.Shred)
	if err != nil {
		t.Fatal(err)
	}
	if top := res.Top().Columns; len(top) != 2 || top[1].Name != "big" || top[1].Type.String() != "Label" {
		t.Fatalf("shred top columns should carry a label: %+v", top)
	}
}

// Concurrent runs sharing one catalog generation's converted inputs must
// agree with a run over a fresh catalog's, while the shared generation
// converts its input once (one bound input, under R).
func TestSharedBindMatchesFreshBind(t *testing.T) {
	cat := prepCatalog(t, 0)
	sq, err := cat.NewSession(trance.SessionOptions{}).PrepareNamed("bound", prepQuery(7004))
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []trance.Strategy{trance.Standard, trance.Shred} {
		want, err := prepSessionQuery(t, 0, "fresh", prepQuery(7004)).Run(context.Background(), strat)
		if err != nil {
			t.Fatalf("%v run: %v", strat, err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := sq.Run(context.Background(), strat)
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
	if owned := trance.CatalogInputs(cat, "R"); len(owned) != 1 {
		t.Fatalf("catalog owns inputs %v of R, want one", owned)
	}
}

// The compilation cache is bounded: over-filling it evicts the oldest
// entries instead of growing without limit, and evicted queries still work
// (they recompile on next use).
func TestPlanCacheBounded(t *testing.T) {
	defer trance.SetMaxPlanCacheEntriesForTest(2)()
	sess := prepCatalog(t, 0).NewSession(trance.SessionOptions{})
	queries := []*trance.SessionQuery{}
	for i, lo := range []int64{7201, 7202, 7203, 7204} {
		sq, err := sess.PrepareNamed(fmt.Sprintf("bounded-%d", i), prepQuery(lo))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sq.Run(context.Background(), trance.Standard); err != nil {
			t.Fatal(err)
		}
		queries = append(queries, sq)
	}
	stats := trance.Counters()
	if stats["plan_cache.entries"] > 2 {
		t.Fatalf("cache exceeded its bound: %d entries", stats["plan_cache.entries"])
	}
	if stats["plan_cache.evictions"] < 2 {
		t.Fatalf("want at least 2 evictions, got %d", stats["plan_cache.evictions"])
	}
	// The first (evicted) query still runs — it just recompiles.
	res, err := queries[0].Run(context.Background(), trance.Standard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Count() != 3 {
		t.Fatalf("want 3 rows, got %d", res.Output.Count())
	}
}

// TestQueryIsTheOneStepProgram: PrepareNamed, PreparePipeline over the one step
// "Q" and PrepareText all compile a query one way, under one fingerprint, so
// the plan cache compiles it once per strategy between them.
func TestQueryIsTheOneStepProgram(t *testing.T) {
	trance.ResetPlanCache()
	strat := trance.Shred
	sess := prepCatalog(t, 0).NewSession(trance.SessionOptions{})
	sq, err := sess.PrepareNamed("", prepQuery(5))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sess.PreparePipeline([]trance.PipelineStep{{Name: "Q", Expr: prepQuery(5)}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sess.PrepareText("", trance.Print(prepQuery(5)))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []*trance.SessionQuery{sq, sp, st} {
		if fp, want := q.Prepared().Fingerprint(), sq.Prepared().Fingerprint(); fp != want {
			t.Fatalf("a query and its one-step program fingerprint differently: %s vs %s", fp, want)
		}
		if _, err := q.Run(context.Background(), strat); err != nil {
			t.Fatal(err)
		}
	}
	if c := trance.Counters(); c["plan_cache.compiles"] != 1 || c["plan_cache.hits"] != 2 {
		t.Fatalf("compiles=%d hits=%d, want one compilation served twice from the cache", c["plan_cache.compiles"], c["plan_cache.hits"])
	}
}

// TestQueryOverInputNamedQ: a query's one step is named "Q" unless an input
// already is, so a query over an input named Q prepares and runs through a
// session and a session's text alike; a program step that reuses a bound
// name is rejected.
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
	for _, strat := range []trance.Strategy{trance.Standard, trance.Shred, trance.ShredSkew} {
		ctx := context.Background()
		runs := map[string]func() (*trance.SessionQuery, error){
			"session": func() (*trance.SessionQuery, error) { return sess.PrepareNamed("", mk()) },
			"text":    func() (*trance.SessionQuery, error) { return sess.PrepareText("", text) },
		}
		for name, prep := range runs {
			sq, err := prep()
			if err != nil {
				t.Fatalf("%s %s: %v", name, strat, err)
			}
			res, err := sq.Run(ctx, strat)
			if err != nil {
				t.Fatalf("%s %s: %v", name, strat, err)
			}
			if got := collectBag(res); !trance.ValuesEqual(got, want) {
				t.Fatalf("%s %s: got %s, want %s", name, strat, trance.FormatValue(got), trance.FormatValue(want))
			}
		}
	}

	_, err := sess.PreparePipeline([]trance.PipelineStep{{Name: "Q", Expr: mk()}})
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
