package trance_test

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/trance-go/trance"
)

// mutType is the flat dataset shape the mutation tests share.
func mutType() trance.Type {
	return trance.BagOf(trance.Tup("id", trance.IntT, "grp", trance.IntT, "val", trance.RealT))
}

func mutRow(id int64) trance.Tuple {
	return trance.Tuple{id, id % 5, float64(id) / 4}
}

func mutBag(n int) trance.Bag {
	b := make(trance.Bag, n)
	for i := range b {
		b[i] = mutRow(int64(i))
	}
	return b
}

// mutQuery builds `for x in D union if x.id == key then {⟨id, grp⟩}` fresh
// per use (compilation annotates ASTs in place).
func mutQuery(key int64) trance.Expr {
	return trance.ForIn("x", trance.V("D"),
		trance.IfThen(trance.EqOf(trance.P(trance.V("x"), "id"), trance.C(key)),
			trance.SingOf(trance.Record(
				"id", trance.P(trance.V("x"), "id"),
				"grp", trance.P(trance.V("x"), "grp")))))
}

func TestCatalogAppendDelete(t *testing.T) {
	cat := trance.NewCatalog()
	if err := cat.Register("D", mutType(), mutBag(10)); err != nil {
		t.Fatal(err)
	}
	st0, _ := cat.Stats("D")

	info, err := cat.Append("D", trance.Bag{mutRow(100), mutRow(101), mutRow(7)})
	if err != nil {
		t.Fatal(err)
	}
	if info.Rows != 13 {
		t.Fatalf("append: %+v", info)
	}
	st1, _ := cat.Stats("D")
	if st1.Rows != 13 || st1.Generation <= st0.Generation {
		t.Fatalf("append must recollect statistics under a new generation: %+v -> %+v", st0, st1)
	}

	// Empty appends and no-match deletes are no-ops: no generation churn.
	if _, err := cat.Append("D", nil); err != nil {
		t.Fatal(err)
	}
	if n, err := cat.Delete("D", "id", int64(999)); err != nil || n != 0 {
		t.Fatalf("no-match delete: %d, %v", n, err)
	}
	if st, _ := cat.Stats("D"); st.Generation != st1.Generation {
		t.Fatalf("no-op mutations must not bump the generation: %d -> %d", st1.Generation, st.Generation)
	}

	// Appended rows are validated against the registered element type.
	bad := trance.Bag{trance.Tuple{"x", int64(0), 0.5}}
	if _, err := cat.Append("D", bad); err == nil || !strings.Contains(err.Error(), "field id") {
		t.Fatalf("type-mismatched append must name the field: %v", err)
	}

	// Delete by key: both id=7 rows (the original and the appended one) go.
	n, err := cat.Delete("D", "id", int64(7))
	if err != nil || n != 2 {
		t.Fatalf("delete id=7: %d, %v", n, err)
	}
	if info, _ := cat.Info("D"); info.Rows != 11 {
		t.Fatalf("rows after delete: %+v", info)
	}
	if _, err := cat.Delete("D", "id", nil); err == nil {
		t.Fatal("NULL delete key must be rejected")
	}
	if _, err := cat.Delete("D", "nope", int64(1)); err == nil {
		t.Fatal("unknown delete column must be rejected")
	}

	// Delete by a non-unique column: ids 3 and 8 share grp 3.
	if n, err = cat.Delete("D", "grp", int64(3)); err != nil || n != 2 {
		t.Fatalf("delete grp=3: %d, %v", n, err)
	}

	if _, err := cat.Append("ghost", trance.Bag{mutRow(1)}); err == nil {
		t.Fatal("append to unknown dataset must fail")
	}
	if _, err := cat.Delete("ghost", "id", int64(1)); err == nil {
		t.Fatal("delete on unknown dataset must fail")
	}
}

func TestCatalogCreateIndexAndListing(t *testing.T) {
	cat := trance.NewCatalog()
	// 200 rows, NDV(id)=200: the statistics layer auto-indexes id (and val).
	if err := cat.Register("D", mutType(), mutBag(200)); err != nil {
		t.Fatal(err)
	}
	byCol := func() map[string]trance.IndexInfo {
		out := map[string]trance.IndexInfo{}
		infos, ok := cat.Indexes("D")
		if !ok {
			t.Fatal("Indexes: dataset missing")
		}
		for _, ii := range infos {
			out[ii.Column] = ii
		}
		return out
	}
	idx := byCol()
	if ii := idx["id"]; !ii.Auto || ii.Keys != 200 || ii.Nulls != 0 {
		t.Fatalf("auto index on id: %+v", idx)
	}
	if _, auto := idx["grp"]; auto {
		t.Fatalf("grp (NDV 5) must not be auto-indexed: %+v", idx)
	}

	// Explicit build on the low-NDV column; every accepted kind name builds
	// the one index, and building it again installs a new generation.
	ii, err := cat.CreateIndex("D", "grp", "hash")
	if err != nil || ii.Auto || ii.Keys != 5 {
		t.Fatalf("create index: %+v, %v", ii, err)
	}
	again, err := cat.CreateIndex("D", "grp", "range")
	if err != nil || again.Keys != 5 || again.Generation <= ii.Generation {
		t.Fatalf("rebuild under another kind name: %+v after %+v, %v", again, ii, err)
	}

	if _, err := cat.CreateIndex("D", "nope", ""); err == nil {
		t.Fatal("unknown column must be rejected")
	}
	if _, err := cat.CreateIndex("ghost", "id", ""); err == nil {
		t.Fatal("unknown dataset must be rejected")
	}
	if _, err := cat.CreateIndex("D", "id", "btree"); err == nil {
		t.Fatal("unknown kind must be rejected")
	}

	// Append maintains every index incrementally; Delete rebuilds them.
	before := trance.Counters()
	if _, err := cat.Append("D", trance.Bag{mutRow(500), mutRow(501)}); err != nil {
		t.Fatal(err)
	}
	if idx = byCol(); idx["id"].Rows != 202 || idx["id"].Keys != 202 || idx["grp"].Rows != 202 {
		t.Fatalf("indexes not maintained by append: %+v", idx)
	}
	mid := trance.Counters()
	if mid["index.maintained"] <= before["index.maintained"] {
		t.Fatalf("append must extend indexes incrementally: %v -> %v", before, mid)
	}
	if n, err := cat.Delete("D", "id", int64(500)); err != nil || n != 1 {
		t.Fatalf("delete: %d, %v", n, err)
	}
	if idx = byCol(); idx["id"].Rows != 201 || idx["id"].Keys != 201 {
		t.Fatalf("indexes not rebuilt by delete: %+v", idx)
	}
	if after := trance.Counters(); after["index.rebuilt"] <= mid["index.rebuilt"] {
		t.Fatalf("delete must rebuild indexes: %v -> %v", mid, after)
	}
}

// TestSessionMutationOracle is the catalog half of the differential oracle:
// a session over an auto-indexed dataset and one over the same rows with no
// index — registered below the auto-index threshold and appended up to it, so
// its statistics flag no index and its plans scan — run the same point query
// across a sequence of appends and deletes, and after every mutation both must
// agree with the reference evaluator over a mirrored copy of the data —
// generation invalidation must never serve stale rows, a stale plan, or index
// results that differ from the full scan.
func TestSessionMutationOracle(t *testing.T) {
	indexed, ablated := trance.NewCatalog(), trance.NewCatalog()
	if err := indexed.Register("D", mutType(), mutBag(200)); err != nil {
		t.Fatal(err)
	}
	if err := ablated.Register("D", mutType(), mutBag(100)); err != nil {
		t.Fatal(err)
	}
	if _, err := ablated.Append("D", mutBag(200)[100:]); err != nil {
		t.Fatal(err)
	}
	catalogs := []*trance.Catalog{indexed, ablated}
	mirror := append(trance.Bag{}, mutBag(200)...)

	sessions := map[string]*trance.SessionQuery{}
	for name, cat := range map[string]*trance.Catalog{"indexed": indexed, "ablated": ablated} {
		sq, err := cat.NewSession(trance.SessionOptions{}).PrepareNamed("", mutQuery(7))
		if err != nil {
			t.Fatal(err)
		}
		sessions[name] = sq
	}

	strategies := []trance.Strategy{trance.Standard, trance.StandardSkew, trance.Shred, trance.Auto}
	env := trance.Env{"D": mutType()}
	check := func(step string) {
		t.Helper()
		oq := mutQuery(7)
		if _, err := trance.Check(oq, env); err != nil {
			t.Fatalf("%s: oracle query check: %v", step, err)
		}
		want := trance.LocalEval(oq, map[string]trance.Bag{"D": mirror})
		for name, sq := range sessions {
			for _, strat := range strategies {
				res, err := sq.Run(context.Background(), strat)
				if err != nil {
					t.Fatalf("%s: %s %s: %v", step, name, strat, err)
				}
				if got := collectBag(res); !trance.ValuesEqual(got, want) {
					t.Fatalf("%s: %s %s diverges from the oracle\n got: %s\nwant: %s",
						step, name, strat, trance.FormatValue(got), trance.FormatValue(want))
				}
			}
		}
	}

	before := trance.Counters()
	check("initial")

	// Append a tail including a duplicate of the probed key.
	tail := trance.Bag{mutRow(7), mutRow(300), mutRow(301)}
	for _, cat := range catalogs {
		if _, err := cat.Append("D", tail); err != nil {
			t.Fatal(err)
		}
	}
	mirror = append(mirror, tail...)
	check("after append")

	// Delete the probed key entirely.
	for _, cat := range catalogs {
		if _, err := cat.Delete("D", "id", int64(7)); err != nil {
			t.Fatal(err)
		}
	}
	kept := mirror[:0:0]
	for _, r := range mirror {
		if r.(trance.Tuple)[0].(int64) != 7 {
			kept = append(kept, r)
		}
	}
	mirror = kept
	check("after delete")

	// Append the key back: the query must see it again.
	for _, cat := range catalogs {
		if _, err := cat.Append("D", trance.Bag{mutRow(7)}); err != nil {
			t.Fatal(err)
		}
	}
	mirror = append(mirror, mutRow(7))
	check("after re-append")

	// The indexed session must actually have planned and executed index
	// scans, or the comparison above proved nothing about them.
	after := trance.Counters()
	if after["index.planned_scans"] <= before["index.planned_scans"] || after["index.scans"] <= before["index.scans"] {
		t.Fatalf("no index scans planned/executed across the oracle steps: %v -> %v", before, after)
	}
	if text, err := sessions["indexed"].Prepared().Explain(trance.Standard); err != nil || !strings.Contains(text, "[index col=") {
		t.Fatalf("indexed session explain lacks [index col=…]: %v\n%s", err, text)
	}
	if text, err := sessions["ablated"].Prepared().Explain(trance.Standard); err != nil || strings.Contains(text, "[index col=") {
		t.Fatalf("ablated session must not plan index scans: %v\n%s", err, text)
	}
}

// TestCatalogAppendRetargetsAuto is the regression test for stale statistics
// after a mutation: Append must recollect statistics under the new generation
// atomically with the data swap, so the Auto route follows the data — a
// uniform dataset that gains a heavily skewed tail re-routes to the
// skew-aware strategy on the very next Run of an already-prepared session
// query.
func TestCatalogAppendRetargetsAuto(t *testing.T) {
	dt := trance.BagOf(trance.Tup("k", trance.IntT, "v", trance.IntT))
	uniform := make(trance.Bag, 2000)
	for i := range uniform {
		uniform[i] = trance.Tuple{int64(i), int64(i)}
	}
	mkQuery := func() trance.Expr {
		return trance.ForIn("x", trance.V("D"),
			trance.SingOf(trance.Record("k", trance.P(trance.V("x"), "k"))))
	}
	cat := trance.NewCatalog()
	if err := cat.Register("D", dt, uniform); err != nil {
		t.Fatal(err)
	}
	sq, err := cat.NewSession(trance.SessionOptions{}).PrepareNamed("", mkQuery())
	if err != nil {
		t.Fatal(err)
	}
	route := func() trance.Strategy {
		t.Helper()
		res, err := sq.Run(context.Background(), trance.Auto)
		if err != nil {
			t.Fatal(err)
		}
		return res.Strategy
	}
	if got := route(); got != trance.Standard {
		t.Fatalf("uniform data routed to %s, want STANDARD", got)
	}
	st1, _ := cat.Stats("D")

	// A hot key carrying ~70% of a 3000-row tail pushes the heavy fraction
	// over the skew threshold.
	tail := make(trance.Bag, 3000)
	for i := range tail {
		k := int64(1 + i%97)
		if i%10 < 7 {
			k = 0
		}
		tail[i] = trance.Tuple{k, int64(i)}
	}
	if _, err := cat.Append("D", tail); err != nil {
		t.Fatal(err)
	}
	st2, _ := cat.Stats("D")
	if st2.Rows != 5000 || st2.Generation <= st1.Generation || heaviest(st2) < 0.15 {
		t.Fatalf("append did not recollect statistics: %+v -> %+v", st1, st2)
	}
	if got := route(); got != trance.StandardSkew {
		t.Fatalf("appended skew routed to %s, want STANDARD-SKEW (stale statistics?)", got)
	}
}

// TestCatalogMutationsRace: Append, Delete and CreateIndex interleave on one
// dataset from several goroutines. Each installs through the one step, so no
// mutation is lost or half-applied: afterwards the info, the statistics and
// every index cover the same rows, and every goroutine sees its successful
// mutations take ever larger generations. Run with -race.
func TestCatalogMutationsRace(t *testing.T) {
	cat := trance.NewCatalog()
	if err := cat.Register("D", mutType(), mutBag(200)); err != nil {
		t.Fatal(err)
	}
	const workers, rounds = 4, 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var last int64
			advanced := func(what string, gen int64) bool {
				if gen <= last {
					t.Errorf("worker %d: %s reported generation %d after %d", w, what, gen, last)
					return false
				}
				last = gen
				return true
			}
			statsGen := func() int64 {
				st, _ := cat.Stats("D")
				return st.Generation
			}
			for i := 0; i < rounds; i++ {
				id := int64(1000*(w+1) + i)
				if _, err := cat.Append("D", trance.Bag{mutRow(id)}); err != nil {
					t.Errorf("append: %v", err)
					return
				}
				if !advanced("append", statsGen()) {
					return
				}
				switch i % 3 {
				case 0:
					ii, err := cat.CreateIndex("D", "grp", []string{"hash", "range"}[w%2])
					if err != nil {
						t.Errorf("create index: %v", err)
						return
					}
					if !advanced("create index", ii.Generation) {
						return
					}
				case 1:
					if n, err := cat.Delete("D", "id", id); err != nil || n != 1 {
						t.Errorf("delete id=%d: %d, %v", id, n, err)
						return
					}
					if !advanced("delete", statsGen()) {
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	want := 200 + workers*rounds - workers*(rounds/3)
	info, _ := cat.Info("D")
	st, _ := cat.Stats("D")
	if info.Rows != want || st.Rows != int64(want) {
		t.Fatalf("info %d rows, stats %d rows, want %d", info.Rows, st.Rows, want)
	}
	idx, _ := cat.Indexes("D")
	indexed := map[string]bool{}
	for _, ii := range idx {
		if ii.Rows != int64(want) || ii.Generation != st.Generation {
			t.Fatalf("index %s: %+v, want %d rows at generation %d", ii.Column, ii, want, st.Generation)
		}
		indexed[ii.Column] = true
	}
	if !indexed["grp"] || !indexed["id"] {
		t.Fatalf("indexed columns %v: want grp (built concurrently) and id (auto)", indexed)
	}
}

// TestInfoCarriesTheGeneration: a dataset's info names the generation it
// describes — the one its statistics and indexes are stamped with — after
// registration and every kind of mutation, and the info or index a mutation
// returns is the generation it installed.
func TestInfoCarriesTheGeneration(t *testing.T) {
	cat := trance.NewCatalog()
	if err := cat.Register("D", mutType(), mutBag(10)); err != nil {
		t.Fatal(err)
	}
	var last int64
	check := func(step string, returned int64) {
		t.Helper()
		info, _ := cat.Info("D")
		st, _ := cat.Stats("D")
		if info.Generation != st.Generation || info.Generation <= last || returned != info.Generation {
			t.Fatalf("%s: info generation %d, statistics %d, returned %d, previous %d",
				step, info.Generation, st.Generation, returned, last)
		}
		last = info.Generation
	}
	info, _ := cat.Info("D")
	check("register", info.Generation)
	info, err := cat.Append("D", trance.Bag{mutRow(100)})
	if err != nil {
		t.Fatal(err)
	}
	check("append", info.Generation)
	if _, err := cat.Delete("D", "id", int64(3)); err != nil {
		t.Fatal(err)
	}
	info, _ = cat.Info("D")
	check("delete", info.Generation)
	ii, err := cat.CreateIndex("D", "grp", "hash")
	if err != nil {
		t.Fatal(err)
	}
	check("create index", ii.Generation)
}

// runJSON runs sq and renders every row of the Result as a JSON object, by
// the run's own output schema.
func runJSON(ctx context.Context, sq *trance.SessionQuery, strat trance.Strategy) ([]map[string]any, error) {
	res, err := sq.Run(ctx, strat)
	if err != nil {
		return nil, err
	}
	rows, _, err := res.JSON(0)
	return rows, err
}

// TestRunJSONFollowsReregisteredType: the JSON field names come from the same
// catalog resolution as the rows. Dropping a dataset and re-registering it
// under a different tuple type must make the next Run answer with the new
// fields — not encode the new rows under the dropped generation's schema.
func TestRunJSONFollowsReregisteredType(t *testing.T) {
	cat := trance.NewCatalog()
	if err := cat.Register("D", trance.BagOf(trance.Tup("a", trance.StringT)), trance.Bag{trance.Tuple{"s"}}); err != nil {
		t.Fatal(err)
	}
	sq, err := cat.NewSession(trance.SessionOptions{}).PrepareNamed("",
		trance.ForIn("x", trance.V("D"), trance.SingOf(trance.V("x"))))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if rows, err := runJSON(ctx, sq, trance.Standard); err != nil || len(rows) != 1 || rows[0]["a"] != "s" {
		t.Fatalf("first generation: %v, %v", rows, err)
	}
	cat.Drop("D")
	if err := cat.Register("D", trance.BagOf(trance.Tup("b", trance.StringT, "c", trance.IntT)),
		trance.Bag{trance.Tuple{"s", int64(7)}}); err != nil {
		t.Fatal(err)
	}
	for _, strat := range []trance.Strategy{trance.Standard, trance.Shred} {
		rows, err := runJSON(ctx, sq, strat)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if len(rows) != 1 || len(rows[0]) != 2 || rows[0]["b"] != "s" || rows[0]["c"] != int64(7) {
			t.Fatalf("%s: want [{b: s, c: 7}] from the re-registered type, got %v", strat, rows)
		}
	}
}

// TestRunJSONRacesAppend: runs rendered as JSON and plain runs of one session
// query while the dataset keeps appending — every reader resolves schema and
// rows under the query's lock, so the race detector stays quiet and every
// answer is a whole generation (the key row is always there, with the query's
// two fields).
func TestRunJSONRacesAppend(t *testing.T) {
	cat := trance.NewCatalog()
	if err := cat.Register("D", mutType(), mutBag(20)); err != nil {
		t.Fatal(err)
	}
	sq, err := cat.NewSession(trance.SessionOptions{}).PrepareNamed("", mutQuery(7))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				rows, err := runJSON(ctx, sq, trance.Standard)
				if err != nil || len(rows) != 1 || len(rows[0]) != 2 || rows[0]["id"] != int64(7) {
					t.Errorf("JSON run under append: %v, %v", rows, err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if res, err := sq.Run(ctx, trance.Shred); err != nil || res.Output.Count() != 1 {
					t.Errorf("Run under append: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		if _, err := cat.Append("D", trance.Bag{mutRow(int64(1000 + i))}); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
}

// TestNaNKeysRefuseTheIndex: value.Compare makes NaN equal to every number,
// so σ keeps a NaN row under `val == 10.0`, and an index scan that left the
// NaN rows out answered differently from the filter it replaces. A column
// holding a NaN is not indexed at registration, and an append that brings
// one in drops the column's index; both answer as LocalEval does.
func TestNaNKeysRefuseTheIndex(t *testing.T) {
	typ := trance.BagOf(trance.Tup("id", trance.IntT, "val", trance.RealT))
	rows := func(lo, hi int, nan bool) trance.Bag {
		b := trance.Bag{}
		for i := lo; i < hi; i++ {
			v := float64(i) / 2
			if nan && i%50 == 7 {
				v = math.NaN()
			}
			b = append(b, trance.Tuple{int64(i), v})
		}
		return b
	}
	query := func() trance.Expr {
		return trance.ForIn("x", trance.V("D"),
			trance.IfThen(trance.EqOf(trance.P(trance.V("x"), "val"), trance.C(10.0)),
				trance.SingOf(trance.Record("id", trance.P(trance.V("x"), "id")))))
	}
	indexed := func(cat *trance.Catalog, col string) bool {
		infos, _ := cat.Indexes("D")
		for _, ii := range infos {
			if ii.Column == col {
				return true
			}
		}
		return false
	}
	check := func(step string, cat *trance.Catalog, mirror trance.Bag, wantRows int) {
		t.Helper()
		q := query()
		if _, err := trance.Check(q, trance.Env{"D": typ}); err != nil {
			t.Fatal(err)
		}
		want := trance.LocalEval(q, map[string]trance.Bag{"D": mirror})
		if n := len(want.(trance.Bag)); n != wantRows {
			t.Fatalf("%s: LocalEval returned %d rows, want %d", step, n, wantRows)
		}
		sq, err := cat.NewSession(trance.SessionOptions{}).PrepareNamed("", query())
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []trance.Strategy{trance.Standard, trance.Shred} {
			res, err := sq.Run(context.Background(), strat)
			if err != nil {
				t.Fatalf("%s: %s: %v", step, strat, err)
			}
			if got := collectBag(res); !trance.ValuesEqual(got, want) {
				t.Fatalf("%s: %s diverges from LocalEval\n got: %s\nwant: %s",
					step, strat, trance.FormatValue(got), trance.FormatValue(want))
			}
		}
	}

	// 300 rows, 6 of them NaN: id is auto-indexed, val is refused.
	withNaN := trance.NewCatalog()
	mirror := rows(0, 300, true)
	if err := withNaN.Register("D", typ, mirror); err != nil {
		t.Fatal(err)
	}
	check("registered with NaN", withNaN, mirror, 7)
	if !indexed(withNaN, "id") || indexed(withNaN, "val") {
		t.Fatal("registration must index id and refuse val")
	}

	// No NaN at registration: val is auto-indexed and serves the probe; an
	// appended NaN drops it.
	cat := trance.NewCatalog()
	mirror = rows(0, 300, false)
	if err := cat.Register("D", typ, mirror); err != nil {
		t.Fatal(err)
	}
	if !indexed(cat, "val") {
		t.Fatal("val is not auto-indexed")
	}
	check("registered without NaN", cat, mirror, 1)
	tail := trance.Bag{trance.Tuple{int64(300), math.NaN()}}
	if _, err := cat.Append("D", tail); err != nil {
		t.Fatal(err)
	}
	mirror = append(mirror, tail...)
	check("after appending NaN", cat, mirror, 2)
	if !indexed(cat, "id") || indexed(cat, "val") {
		t.Fatal("an appended NaN must drop val's index and keep id's")
	}
}
