package trance_test

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/trance-go/trance"
)

func TestCatalogRegisterAndResolve(t *testing.T) {
	cat := trance.NewCatalog()
	if err := cat.Register("R", prepEnv()["R"], prepInputs(0)["R"]); err != nil {
		t.Fatal(err)
	}
	info, ok := cat.Info("R")
	if !ok || info.Rows != 3 || info.Source != "go" || info.Bytes <= 0 {
		t.Fatalf("info: %+v", info)
	}
	sq, err := cat.NewSession(trance.SessionOptions{}).PrepareNamed("", prepQuery(8001))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sq.Run(context.Background(), trance.Standard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Count() != 3 {
		t.Fatalf("want 3 rows, got %d", res.Output.Count())
	}
}

func TestCatalogRegisterValidates(t *testing.T) {
	cat := trance.NewCatalog()
	// Non-bag type.
	if err := cat.Register("X", trance.IntT, nil); err == nil {
		t.Fatal("non-bag type must be rejected")
	}
	// Value/type mismatch: int where string declared.
	bad := trance.Bag{trance.Tuple{int64(7)}}
	err := cat.Register("Y", trance.BagOf(trance.Tup("s", trance.StringT)), bad)
	if err == nil || !strings.Contains(err.Error(), "field s") {
		t.Fatalf("mismatch should name the field: %v", err)
	}
	// Duplicate name.
	good := trance.BagOf(trance.Tup("a", trance.IntT))
	if err := cat.Register("Z", good, trance.Bag{}); err != nil {
		t.Fatal(err)
	}
	if err := cat.Register("Z", good, trance.Bag{}); err == nil {
		t.Fatal("duplicate registration must fail")
	}
	if !cat.Drop("Z") || cat.Drop("Z") {
		t.Fatal("Drop should remove exactly once")
	}
	if err := cat.Register("Z", good, trance.Bag{}); err != nil {
		t.Fatalf("re-register after Drop: %v", err)
	}
}

// TestCatalogDropInvalidatesStatistics is the regression test for stale
// cached routes: statistics (and the catalog generation stamping them) are
// part of the prepared-query fingerprint, so dropping a dataset and
// re-registering different data under the same name must re-plan — the Auto
// strategy picks its route from the NEW data, never from a cached compilation
// of the old registration.
func TestCatalogDropInvalidatesStatistics(t *testing.T) {
	dt := trance.BagOf(trance.Tup("k", trance.IntT, "v", trance.IntT))
	uniform := make(trance.Bag, 2000)
	for i := range uniform {
		uniform[i] = trance.Tuple{int64(i), int64(i)}
	}
	skewed := make(trance.Bag, 2000)
	for i := range skewed {
		k := int64(1 + i%97)
		if i%10 < 7 {
			k = 0
		}
		skewed[i] = trance.Tuple{k, int64(i)}
	}
	// Rebuilt per Prepare: compilation annotates ASTs in place.
	mkQuery := func() trance.Expr {
		return trance.ForIn("x", trance.V("D"),
			trance.SingOf(trance.Record("k", trance.P(trance.V("x"), "k"))))
	}

	cat := trance.NewCatalog()
	if err := cat.Register("D", dt, uniform); err != nil {
		t.Fatal(err)
	}
	s := cat.NewSession(trance.SessionOptions{})
	autoRoute := func() trance.Strategy {
		t.Helper()
		sq, err := s.PrepareNamed("", mkQuery())
		if err != nil {
			t.Fatal(err)
		}
		res, err := sq.Run(context.Background(), trance.Auto)
		if err != nil {
			t.Fatal(err)
		}
		return res.Strategy
	}

	if got := autoRoute(); got != trance.Standard {
		t.Fatalf("uniform data routed to %s, want STANDARD", got)
	}
	st1, ok := cat.Stats("D")
	if !ok || st1.Rows != 2000 || heaviest(st1) != 0 {
		t.Fatalf("uniform stats: %+v", st1)
	}

	if !cat.Drop("D") {
		t.Fatal("Drop failed")
	}
	if err := cat.Register("D", dt, skewed); err != nil {
		t.Fatal(err)
	}
	// Same name, same query, same session — but new data: a stale cached
	// compilation would still route to STANDARD here.
	if got := autoRoute(); got != trance.StandardSkew {
		t.Fatalf("re-registered skewed data routed to %s, want STANDARD-SKEW (stale cached statistics?)", got)
	}
	st2, ok := cat.Stats("D")
	if !ok || heaviest(st2) < 0.15 {
		t.Fatalf("skewed stats not refreshed: %+v", st2)
	}
	if st2.Generation <= st1.Generation {
		t.Fatalf("generation did not advance: %d -> %d", st1.Generation, st2.Generation)
	}
}

func TestSessionPrepareUnknownDataset(t *testing.T) {
	cat := trance.NewCatalog()
	_, err := cat.NewSession(trance.SessionOptions{}).PrepareNamed("", prepQuery(8002))
	if err == nil || !strings.Contains(err.Error(), "no dataset") {
		t.Fatalf("missing dataset must be a descriptive error: %v", err)
	}
}

// A session binding maps a query variable to a differently named dataset.
func TestSessionBindings(t *testing.T) {
	cat := trance.NewCatalog()
	if err := cat.Register("warehouse/r-v2", prepEnv()["R"], prepInputs(0)["R"]); err != nil {
		t.Fatal(err)
	}
	s := cat.NewSession(trance.SessionOptions{Bindings: map[string]string{"R": "warehouse/r-v2"}})
	sq, err := s.PrepareNamed("", prepQuery(8003))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sq.Run(context.Background(), trance.Shred)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Count() != 3 {
		t.Fatalf("want 3 rows, got %d", res.Output.Count())
	}
}

// JSON-in → query → JSON-out: ingest NDJSON, query it through standard and
// shredded routes, and get the same JSON rows back.
func TestCatalogJSONEndToEnd(t *testing.T) {
	const ndjson = `
{"k": 1, "items": [{"v": 5}, {"v": 20}, {"v": 35}]}
{"k": 2, "items": [{"v": 50}]}
{"k": 3, "items": []}
`
	cat := trance.NewCatalog()
	info, err := cat.RegisterJSON("R", strings.NewReader(ndjson))
	if err != nil {
		t.Fatal(err)
	}
	want := trance.BagOf(trance.Tup("items", trance.BagOf(trance.Tup("v", trance.IntT)), "k", trance.IntT))
	if info.Type.String() != want.String() {
		t.Fatalf("inferred %s, want %s", info.Type, want)
	}
	// The inferred schema must agree with trance.Check on the identity query.
	q := trance.ForIn("x", trance.V("R"), trance.SingOf(trance.V("x")))
	ct, err := trance.Check(q, cat.Env())
	if err != nil {
		t.Fatal(err)
	}
	if ct.String() != info.Type.String() {
		t.Fatalf("Check says %s, catalog says %s", ct, info.Type)
	}

	sq, err := cat.NewSession(trance.SessionOptions{}).PrepareNamed("identity", q)
	if err != nil {
		t.Fatal(err)
	}
	var blobs []string
	for _, strat := range []trance.Strategy{trance.Standard, trance.SparkSQLStyle, trance.Shred, trance.StandardSkew, trance.ShredSkew} {
		rows, err := runJSON(context.Background(), sq, strat)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		b, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, string(b))
	}
	for i := 1; i < len(blobs); i++ {
		if blobs[i] != blobs[0] {
			t.Fatalf("strategies disagree on JSON output:\n%s\nvs\n%s", blobs[0], blobs[i])
		}
	}
	if !strings.Contains(blobs[0], `"items":[{"v":5},{"v":20},{"v":35}]`) {
		t.Fatalf("unexpected JSON: %s", blobs[0])
	}
}

// Session queries are generation-aware: while a referenced dataset is
// dropped they keep serving their last snapshot, and once a dataset is
// (re-)registered under the name the next Run re-resolves to it — never
// serving stale rows after a catalog mutation.
func TestSessionFollowsCatalogGenerations(t *testing.T) {
	cat := trance.NewCatalog()
	if err := cat.Register("R", prepEnv()["R"], prepInputs(0)["R"]); err != nil {
		t.Fatal(err)
	}
	sq, err := cat.NewSession(trance.SessionOptions{}).PrepareNamed("", prepQuery(8004))
	if err != nil {
		t.Fatal(err)
	}
	before, err := sq.Run(context.Background(), trance.Standard)
	if err != nil {
		t.Fatal(err)
	}

	// Dropped with no replacement: the query keeps serving its snapshot.
	cat.Drop("R")
	during, err := sq.Run(context.Background(), trance.Standard)
	if err != nil {
		t.Fatal(err)
	}
	if !trance.ValuesEqual(collectBag(before), collectBag(during)) {
		t.Fatal("query over a dropped dataset must keep serving its snapshot")
	}

	// Re-registered under the same name: the next Run serves the new data.
	if err := cat.Register("R", prepEnv()["R"], trance.Bag{}); err != nil {
		t.Fatal(err)
	}
	after, err := sq.Run(context.Background(), trance.Standard)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(collectBag(after)); got != 0 {
		t.Fatalf("re-registered empty dataset served %d rows; session must re-resolve generations", got)
	}
}

func pipelineSteps(lo int64) []trance.PipelineStep {
	// Step 1 filters the nested items; step 2 consumes step 1's output.
	return []trance.PipelineStep{
		{Name: "Big", Expr: prepQuery(lo)},
		{Name: "Out", Expr: trance.ForIn("b", trance.V("Big"),
			trance.SingOf(trance.Record(
				"k2", trance.P(trance.V("b"), "k"),
				"big2", trance.P(trance.V("b"), "big"))))},
	}
}

// A repeated pipeline compiles each step exactly once — later runs, each
// prepared afresh in a new session over the same catalog generation, hit the
// plan cache for every step under every strategy.
func TestRunPipelineReusesPlanCache(t *testing.T) {
	cat := prepCatalog(t, 8100)
	strategies := []trance.Strategy{trance.Standard, trance.Shred}

	var want trance.Bag
	before := trance.Counters()
	for round := 0; round < 4; round++ {
		sp, err := cat.NewSession(trance.SessionOptions{}).PreparePipeline(pipelineSteps(8101))
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range strategies {
			res, err := sp.Run(context.Background(), strat)
			if err != nil {
				t.Fatalf("round %d %v: %v", round, strat, err)
			}
			if len(res.StepElapsed) != 2 {
				t.Fatalf("want 2 timed steps, got %v", res.StepElapsed)
			}
			got := collectBag(res)
			if want == nil {
				want = got
			} else if !trance.ValuesEqual(got, want) {
				t.Fatalf("round %d %v: pipeline output drifted: %s vs %s",
					round, strat, trance.FormatValue(got), trance.FormatValue(want))
			}
		}
	}
	after := trance.Counters()
	// Standard: 2 steps. Shred: 2 steps. 4 rounds never recompile.
	wantCompiles := int64(4)
	if got := after["plan_cache.compiles"] - before["plan_cache.compiles"]; got != wantCompiles {
		t.Fatalf("want exactly %d step compilations across 8 pipeline runs, got %d", wantCompiles, got)
	}
	if after["plan_cache.hits"] <= before["plan_cache.hits"] {
		t.Fatal("repeated pipelines should hit the plan cache")
	}
}

// Env-aware fingerprints: pipelines whose step queries print identically but
// consume differently typed prior outputs must not share compiled plans.
func TestPipelineFingerprintsAreEnvAware(t *testing.T) {
	// Same second step ("for b in Big union {⟨x := b.k⟩}"), but Big's type
	// differs: k is int in one pipeline, string in the other.
	mkSecond := func() trance.Expr {
		return trance.ForIn("b", trance.V("Big"),
			trance.SingOf(trance.Record("x", trance.P(trance.V("b"), "k"))))
	}
	intSteps := []trance.PipelineStep{
		{Name: "Big", Expr: trance.ForIn("r", trance.V("RI"), trance.SingOf(trance.V("r")))},
		{Name: "Out", Expr: mkSecond()},
	}
	strSteps := []trance.PipelineStep{
		{Name: "Big", Expr: trance.ForIn("r", trance.V("RS"), trance.SingOf(trance.V("r")))},
		{Name: "Out", Expr: mkSecond()},
	}
	cat := trance.NewCatalog()
	if err := cat.Register("RI", trance.BagOf(trance.Tup("k", trance.IntT)), trance.Bag{trance.Tuple{int64(7)}}); err != nil {
		t.Fatal(err)
	}
	if err := cat.Register("RS", trance.BagOf(trance.Tup("k", trance.StringT)), trance.Bag{trance.Tuple{"seven"}}); err != nil {
		t.Fatal(err)
	}
	sess := cat.NewSession(trance.SessionOptions{})
	for _, c := range []struct {
		steps []trance.PipelineStep
		want  trance.Value
		typ   string
	}{
		{intSteps, int64(7), "int"},
		{strSteps, "seven", "string"},
	} {
		sp, err := sess.PreparePipeline(c.steps)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sp.Run(context.Background(), trance.Standard)
		if err != nil {
			t.Fatal(err)
		}
		if got := collectBag(res); !trance.ValuesEqual(got, trance.Bag{trance.Tuple{c.want}}) {
			t.Fatalf("%s pipeline: %s", c.typ, trance.FormatValue(got))
		}
		cols, err := sp.Prepared().OutputSchema(trance.Standard)
		if err != nil {
			t.Fatal(err)
		}
		if len(cols) != 1 || cols[0].Name != "x" || cols[0].Type.String() != c.typ {
			t.Fatalf("%s pipeline output columns %+v, want x: %s", c.typ, cols, c.typ)
		}
	}
}

// Session pipelines resolve free variables (not step outputs) against the
// catalog and reuse the plan cache across sessions.
func TestSessionPreparePipeline(t *testing.T) {
	cat := trance.NewCatalog()
	if err := cat.Register("R", prepEnv()["R"], prepInputs(0)["R"]); err != nil {
		t.Fatal(err)
	}
	s := cat.NewSession(trance.SessionOptions{})
	sp, err := s.PreparePipeline(pipelineSteps(8201))
	if err != nil {
		t.Fatal(err)
	}
	seq, err := sp.Run(context.Background(), trance.Standard)
	if err != nil {
		t.Fatal(err)
	}
	want := collectBag(seq)

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			strat := []trance.Strategy{trance.Standard, trance.Shred}[g%2]
			res, err := sp.Run(context.Background(), strat)
			if err != nil {
				errs <- fmt.Errorf("goroutine %d (%v): %w", g, strat, err)
				return
			}
			if got := collectBag(res); !trance.ValuesEqual(got, want) {
				errs <- fmt.Errorf("goroutine %d (%v): got %s want %s",
					g, strat, trance.FormatValue(got), trance.FormatValue(want))
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// heaviest is the largest heavy-key fraction over a dataset's columns: the
// table-level skew signal.
func heaviest(st *trance.DatasetStats) float64 {
	f := 0.0
	for _, c := range st.Columns {
		f = max(f, c.HeavyFraction)
	}
	return f
}
