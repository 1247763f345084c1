package trance_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"weak"

	"github.com/trance-go/trance"
	"github.com/trance-go/trance/internal/shred"
	"github.com/trance-go/trance/internal/tpch"
	"github.com/trance-go/trance/internal/value"
)

// TestEveryEntryPointScansThePlannedIndex: a point lookup over a catalog
// dataset indexed on l_orderkey plans an IndexScan, and every way of
// preparing it — Prepare, PreparePipeline and PrepareText — binds the index
// the plan scans, so each run moves index.scans by one and index.fallbacks by
// none, on the standard route and on the shredded one (whose top component
// the same index addresses).
func TestEveryEntryPointScansThePlannedIndex(t *testing.T) {
	tables := tpch.Generate(tpch.DefaultConfig())
	env := trance.Env{"Lineitem": tpch.FlatEnv()["Lineitem"]}
	inputs := map[string]trance.Bag{"Lineitem": tables.Lineitem}
	cat := trance.NewCatalog()
	if err := cat.Register("Lineitem", env["Lineitem"], tables.Lineitem); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateIndex("Lineitem", "l_orderkey", ""); err != nil {
		t.Fatal(err)
	}
	sess := cat.NewSession(trance.SessionOptions{})

	want := oracle(t, tpch.PointLookup(777), env, inputs)
	if len(want) == 0 {
		t.Fatal("orderkey 777 matches no lineitem: the lookup checks nothing")
	}
	entries := []struct {
		name    string
		prepare func() (*trance.SessionQuery, error)
	}{
		{"PrepareNamed", func() (*trance.SessionQuery, error) { return sess.PrepareNamed("", tpch.PointLookup(777)) }},
		{"PreparePipeline", func() (*trance.SessionQuery, error) {
			return sess.PreparePipeline([]trance.PipelineStep{{Name: "Q", Expr: tpch.PointLookup(777)}})
		}},
		{"PrepareText", func() (*trance.SessionQuery, error) {
			return sess.PrepareText("", trance.Print(tpch.PointLookup(777)))
		}},
	}
	for _, strat := range []trance.Strategy{trance.Standard, trance.Shred} {
		for _, e := range entries {
			sq, err := e.prepare()
			if err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
			before := trance.Counters()
			res, err := sq.Run(context.Background(), strat)
			if err != nil {
				t.Fatalf("%s %s: %v", e.name, strat, err)
			}
			after := trance.Counters()
			scans := after["index.scans"] - before["index.scans"]
			fallbacks := after["index.fallbacks"] - before["index.fallbacks"]
			if scans != 1 || fallbacks != 0 {
				t.Errorf("%s %s: index scans +%d, fallbacks +%d; want +1, +0", e.name, strat, scans, fallbacks)
			}
			if got := collectBag(res); !value.Equal(got, want) {
				t.Errorf("%s %s: %v, want %v", e.name, strat, got, want)
			}
		}
	}
}

// TestBoundInputsConcurrentFirstUse: goroutines racing on the first run of one
// session query, and sessions racing on the same fresh catalog generation,
// convert the input once, scan the generation's index on every run and build
// none of their own.
func TestBoundInputsConcurrentFirstUse(t *testing.T) {
	tables := tpch.Generate(tpch.DefaultConfig())
	env := trance.Env{"Lineitem": tpch.FlatEnv()["Lineitem"]}
	cat := trance.NewCatalog()
	if err := cat.Register("Lineitem", env["Lineitem"], tables.Lineitem); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateIndex("Lineitem", "l_orderkey", "hash"); err != nil {
		t.Fatal(err)
	}
	shared, err := cat.NewSession(trance.SessionOptions{}).PrepareNamed("", tpch.PointLookup(777))
	if err != nil {
		t.Fatal(err)
	}
	want := oracle(t, tpch.PointLookup(777), env, map[string]trance.Bag{"Lineitem": tables.Lineitem})

	const goroutines = 8
	before := trance.Counters()
	var wg sync.WaitGroup
	errs := make(chan error, 2*goroutines)
	for g := range 2 * goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sq := shared
			var err error
			if g%2 == 1 {
				sq, err = cat.NewSession(trance.SessionOptions{}).PrepareNamed("", tpch.PointLookup(777))
			}
			var res *trance.Result
			if err == nil {
				res, err = sq.Run(context.Background(), trance.Standard)
			}
			if err != nil {
				errs <- err
			} else if got := collectBag(res); !value.Equal(got, want) {
				errs <- fmt.Errorf("goroutine %d: %v, want %v", g, got, want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	after := trance.Counters()
	if scans, fallbacks := after["index.scans"]-before["index.scans"], after["index.fallbacks"]-before["index.fallbacks"]; scans != 2*goroutines || fallbacks != 0 {
		t.Errorf("index scans +%d, fallbacks +%d; want +%d, +0", scans, fallbacks, 2*goroutines)
	}
	if built := after["index.built"] - before["index.built"]; built != 0 {
		t.Errorf("runs built %d indexes, want none: the generation's index is bound", built)
	}
	if owned := trance.CatalogInputs(cat, "Lineitem"); len(owned) != 1 {
		t.Errorf("catalog owns inputs %v of Lineitem, want one", owned)
	}
}

// TestSessionSelfJoinThroughBindings: one catalog dataset bound to two
// variables is two inputs — value shredding mints each one's labels from its
// variable name — so a self-join over it converts it once per variable and
// agrees with nrc.Eval on every shredded strategy.
func TestSessionSelfJoinThroughBindings(t *testing.T) {
	cat := trance.NewCatalog()
	data := prepInputs(0)["R"]
	data = append(data, trance.Tuple{int64(2), trance.Bag{trance.Tuple{int64(12)}, trance.Tuple{int64(7)}}})
	if err := cat.Register("orders", prepEnv()["R"], data); err != nil {
		t.Fatal(err)
	}
	sess := cat.NewSession(trance.SessionOptions{Bindings: map[string]string{"A": "orders", "B": "orders"}})
	// for a in A, b in B, a.k == b.k: ⟨k, mine := {it ∈ a.items | it.v > 10}, theirs := b.items⟩
	query := func() trance.Expr {
		a, b := trance.V("a"), trance.V("b")
		return trance.ForIn("a", trance.V("A"), trance.ForIn("b", trance.V("B"),
			trance.IfThen(trance.EqOf(trance.P(a, "k"), trance.P(b, "k")),
				trance.SingOf(trance.Record(
					"k", trance.P(a, "k"),
					"mine", trance.ForIn("it", trance.P(a, "items"),
						trance.IfThen(trance.GtOf(trance.P(trance.V("it"), "v"), trance.C(int64(10))),
							trance.SingOf(trance.V("it")))),
					"theirs", trance.P(b, "items"))))))
	}
	want := oracle(t, query(), trance.Env{"A": prepEnv()["R"], "B": prepEnv()["R"]}, map[string]trance.Bag{"A": data, "B": data})
	sq, err := sess.PrepareNamed("", query())
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []trance.Strategy{trance.Shred, trance.ShredSkew} {
		res, err := sq.Run(context.Background(), strat)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		got, err := nestedResult(res)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if !value.Equal(got, want) {
			t.Errorf("%s: %s\nwant %s", strat, value.Format(got), value.Format(want))
		}
	}
	if owned := trance.CatalogInputs(cat, "orders"); len(owned) != 2 || owned["A"] == nil || owned["B"] == nil {
		t.Errorf("catalog owns inputs %v of orders, want one under A and one under B", owned)
	}
}

// oracle is what the reference evaluator makes of q over the inputs.
func oracle(t *testing.T, q trance.Expr, env trance.Env, inputs map[string]trance.Bag) trance.Bag {
	t.Helper()
	if _, err := trance.Check(q, env); err != nil {
		t.Fatal(err)
	}
	return trance.LocalEval(q, inputs).(trance.Bag)
}

// nestedResult is the nested value a run produced, its output rows; a
// shredded run's are checked against the value-unshredding of its top bag
// (Result.Top) and dictionaries.
func nestedResult(res *trance.Result) (trance.Bag, error) {
	out := collectBag(res)
	if !res.Strategy.IsShredded() {
		return out, nil
	}
	top := []value.Tuple{}
	for _, r := range res.Top().Output.CollectSorted() {
		top = append(top, value.Tuple(r))
	}
	dicts := map[string][]value.Tuple{}
	for _, d := range res.Mat.Dicts {
		rows := []value.Tuple{}
		for _, r := range res.Shredded[d.Name].Collect() {
			rows = append(rows, value.Tuple(r))
		}
		dicts[strings.Join(d.Path, "_")] = rows
	}
	unshredded, err := shred.UnshredValue(top, dicts, res.Mat.OutType)
	if err == nil && !value.Equal(out, unshredded) {
		err = fmt.Errorf("output %s, its top bag unshredded %s", value.Format(out), value.Format(unshredded))
	}
	return out, err
}

// TestCatalogGenerationOwnsItsInputs: sessions resolving one dataset under one
// variable name share the generation's bound input, converted once per route;
// a mutation installs a generation with no bound input, and once the session
// has moved on nothing holds the old one.
func TestCatalogGenerationOwnsItsInputs(t *testing.T) {
	for _, mutate := range []struct {
		name string
		fn   func(*trance.Catalog) error
	}{
		{"append", func(c *trance.Catalog) error { _, err := c.Append("D", trance.Bag{mutRow(100)}); return err }},
		{"delete", func(c *trance.Catalog) error { _, err := c.Delete("D", "id", int64(3)); return err }},
	} {
		t.Run(mutate.name, func(t *testing.T) {
			cat := trance.NewCatalog()
			if err := cat.Register("D", mutType(), mutBag(20)); err != nil {
				t.Fatal(err)
			}
			var queries []*trance.SessionQuery
			for range 2 {
				sq, err := cat.NewSession(trance.SessionOptions{}).PrepareNamed("", mutQuery(3))
				if err != nil {
					t.Fatal(err)
				}
				for _, strat := range []trance.Strategy{trance.Standard, trance.Shred} {
					if _, err := sq.Run(context.Background(), strat); err != nil {
						t.Fatalf("%s: %v", strat, err)
					}
				}
				queries = append(queries, sq)
			}
			owned := trance.CatalogInputs(cat, "D")
			old := owned["D"]
			if len(owned) != 1 || old == nil {
				t.Fatalf("catalog owns inputs %v of D, want one under D", owned)
			}
			for i, sq := range queries {
				if trance.BoundInputs(sq)["D"] != old {
					t.Fatalf("session %d binds its own input of D, not the generation's", i)
				}
			}
			for _, shredded := range []bool{false, true} {
				first, _ := old.Components(shredded, trance.DefaultConfig().Parallelism)
				again, _ := old.Components(shredded, trance.DefaultConfig().Parallelism)
				for comp, rows := range first.Rows {
					if len(rows) > 0 && &again.Rows[comp][0] != &rows[0] {
						t.Errorf("shredded=%t: component %s converted twice", shredded, comp)
					}
				}
				for comp, pl := range first.Placed {
					if again.Placed[comp] != pl {
						t.Errorf("shredded=%t: dictionary %s placed twice", shredded, comp)
					}
				}
			}

			if err := mutate.fn(cat); err != nil {
				t.Fatal(err)
			}
			if owned := trance.CatalogInputs(cat, "D"); len(owned) != 0 {
				t.Fatalf("the new generation starts with bound inputs %v", owned)
			}
			gone := weak.Make(old)
			old, owned = nil, nil
			for _, sq := range queries {
				if _, err := sq.Run(context.Background(), trance.Standard); err != nil {
					t.Fatal(err)
				}
			}
			runtime.GC()
			if gone.Value() != nil {
				t.Error("the superseded generation's bound input is still reachable")
			}
		})
	}
}
