package trance_test

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"github.com/trance-go/trance"
)

// ExampleRun compiles and runs a small NRC query through the standard route:
// for each row of R, emit a record with the incremented a attribute.
func ExampleRun() {
	env := trance.Env{"R": trance.BagOf(trance.Tup("a", trance.IntT))}
	inputs := map[string]trance.Bag{
		"R": {trance.Tuple{int64(1)}, trance.Tuple{int64(2)}, trance.Tuple{int64(3)}},
	}
	q := trance.ForIn("x", trance.V("R"),
		trance.SingOf(trance.Record("b", trance.AddOf(trance.P(trance.V("x"), "a"), trance.C(int64(1))))))

	res := trance.Run(trance.Job{Query: q, Env: env, Inputs: inputs}, trance.Standard, trance.DefaultConfig())
	if res.Failed() {
		fmt.Println("failed:", res.Err)
		return
	}
	for _, row := range res.Output.CollectSorted() {
		fmt.Println(trance.FormatValue(trance.Tuple(row)))
	}
	// Output:
	// ⟨2⟩
	// ⟨3⟩
	// ⟨4⟩
}

// ExampleRun_strategies runs one nested query under the standard route and
// the shredded route with unshredding (paper Section 6's STANDARD vs
// SHRED+UNSHRED) and checks they agree — the repository-wide invariant every
// strategy is tested against.
func ExampleRun_strategies() {
	order := trance.Tup("pid", trance.IntT, "qty", trance.IntT)
	env := trance.Env{
		"CO":   trance.BagOf(trance.Tup("cname", trance.StringT, "orders", trance.BagOf(order))),
		"Part": trance.BagOf(trance.Tup("pid", trance.IntT, "pname", trance.StringT)),
	}
	inputs := map[string]trance.Bag{
		"CO": {
			trance.Tuple{"alice", trance.Bag{trance.Tuple{int64(1), int64(5)}, trance.Tuple{int64(2), int64(7)}}},
			trance.Tuple{"bob", trance.Bag{}},
		},
		"Part": {trance.Tuple{int64(1), "bolt"}, trance.Tuple{int64(2), "nut"}},
	}
	// For each customer, resolve each ordered part to its name (a
	// nested-to-nested query joining an inner collection with a flat input).
	q := trance.ForIn("c", trance.V("CO"),
		trance.SingOf(trance.Record(
			"cname", trance.P(trance.V("c"), "cname"),
			"items", trance.ForIn("o", trance.P(trance.V("c"), "orders"),
				trance.ForIn("p", trance.V("Part"),
					trance.IfThen(trance.EqOf(trance.P(trance.V("o"), "pid"), trance.P(trance.V("p"), "pid")),
						trance.SingOf(trance.Record(
							"pname", trance.P(trance.V("p"), "pname"),
							"qty", trance.P(trance.V("o"), "qty")))))))))

	cfg := trance.DefaultConfig()
	std := trance.Run(trance.Job{Query: q, Env: env, Inputs: inputs}, trance.Standard, cfg)
	shr := trance.Run(trance.Job{Query: q, Env: env, Inputs: inputs}, trance.ShredUnshred, cfg)
	if std.Failed() || shr.Failed() {
		fmt.Println("failed:", std.Err, shr.Err)
		return
	}
	var a, b trance.Bag
	for _, r := range std.Output.CollectSorted() {
		a = append(a, trance.Tuple(r))
	}
	for _, r := range shr.Output.CollectSorted() {
		b = append(b, trance.Tuple(r))
	}
	fmt.Println("strategies agree:", trance.ValuesEqual(a, b))
	for _, v := range a {
		fmt.Println(trance.FormatValue(v))
	}
	// Output:
	// strategies agree: true
	// ⟨"alice", {⟨"bolt", 5⟩, ⟨"nut", 7⟩}⟩
	// ⟨"bob", {}⟩
}

// ExamplePrint renders a query in the canonical surface syntax — the same
// textual language trance.Parse accepts, so printed queries round-trip (see
// docs/QUERYLANG.md).
func ExamplePrint() {
	q := trance.ForIn("x", trance.V("R"),
		trance.SingOf(trance.Record("b", trance.P(trance.V("x"), "a"))))
	fmt.Println(trance.Print(q))
	// Output:
	// for x in R union
	//   { {
	//     b := x.a
	//   } }
}

// ExampleParse is the all-text serving path: a nested dataset arrives as
// JSON (schema inferred), the query arrives as text in the NRC surface
// syntax (docs/QUERYLANG.md), the session resolves its free variable
// against the catalog and compiles it through the plan cache, and the rows
// come back as JSON — no Go builder calls anywhere. Parse and type errors
// carry caret diagnostics pointing into the query text.
func ExampleParse() {
	const ndjson = `
{"cname": "alice", "orders": [{"item": "bolt", "qty": 5.0}, {"item": "nut", "qty": 12.5}]}
{"cname": "bob",   "orders": [{"item": "washer", "qty": 40.0}]}
`
	cat := trance.NewCatalog()
	if _, err := cat.RegisterJSON("R", strings.NewReader(ndjson)); err != nil {
		fmt.Println("ingest failed:", err)
		return
	}
	sq, err := cat.NewSession(trance.SessionOptions{}).PrepareText("big-orders", `
		for r in R union
		  { {
		      cname := r.cname,
		      big := for o in r.orders union
		               if o.qty > 10.0 then { o }
		  } }`)
	if err != nil {
		fmt.Println("prepare failed:", err)
		return
	}
	rows, err := sq.RunJSON(context.Background(), trance.ShredUnshred)
	if err != nil {
		fmt.Println("run failed:", err)
		return
	}
	for _, row := range rows {
		b, _ := json.Marshal(row)
		fmt.Println(string(b))
	}

	// A typo'd field comes back as a caret diagnostic, not a panic.
	_, err = cat.NewSession(trance.SessionOptions{}).PrepareText("", "for r in R union { { x := r.nope } }")
	fmt.Println(strings.Split(err.Error(), "\n")[0])
	// Output:
	// {"big":[{"item":"nut","qty":12.5}],"cname":"alice"}
	// {"big":[{"item":"washer","qty":40}],"cname":"bob"}
	// 1:28: no field "nope" in ⟨cname: string, orders: Bag(⟨item: string, qty: real⟩)⟩
}

// ExampleCatalog is the JSON-in → query → JSON-out round trip: a nested
// dataset arrives as NDJSON, the catalog infers its schema (objects become
// tuples, arrays become bags, ints widen to reals where rows mix them), a
// session resolves the query's free variable R against the catalog, and the
// result comes back as JSON — here through the shredded route with
// unshredding, exercising value shredding of data no query was compiled for.
func ExampleCatalog() {
	const ndjson = `
{"cname": "alice", "orders": [{"item": "bolt", "qty": 5}, {"item": "nut", "qty": 12.5}]}
{"cname": "bob",   "orders": [{"item": "washer", "qty": 40}]}
{"cname": "carol", "orders": []}
`
	cat := trance.NewCatalog()
	info, err := cat.RegisterJSON("R", strings.NewReader(ndjson))
	if err != nil {
		fmt.Println("ingest failed:", err)
		return
	}
	fmt.Println("schema:", info.Type)

	// Per customer, keep only the big orders (qty > 10).
	q := trance.ForIn("r", trance.V("R"),
		trance.SingOf(trance.Record(
			"cname", trance.P(trance.V("r"), "cname"),
			"big", trance.ForIn("o", trance.P(trance.V("r"), "orders"),
				trance.IfThen(trance.GtOf(trance.P(trance.V("o"), "qty"), trance.C(10.0)),
					trance.SingOf(trance.V("o")))),
		)))

	sq, err := cat.NewSession(trance.SessionOptions{}).PrepareNamed("big-orders", q)
	if err != nil {
		fmt.Println("prepare failed:", err)
		return
	}
	// The one Run: the Result carries the rows, their schema, timings and
	// engine metrics; JSON renders the rows by that schema (sq.RunJSON is
	// this pair in one call).
	res, err := sq.Run(context.Background(), trance.ShredUnshred)
	if err != nil {
		fmt.Println("run failed:", err)
		return
	}
	rows, _ := res.JSON(0) // 0: no row limit
	for _, row := range rows {
		b, _ := json.Marshal(row)
		fmt.Println(string(b))
	}
	// Output:
	// schema: Bag(⟨cname: string, orders: Bag(⟨item: string, qty: real⟩)⟩)
	// {"big":[{"item":"nut","qty":12.5}],"cname":"alice"}
	// {"big":[{"item":"washer","qty":40}],"cname":"bob"}
	// {"big":[],"cname":"carol"}
}

// ExamplePrepare compiles a query once and evaluates it many times — across
// datasets and strategies — the pattern a serving process uses. Each
// (query, strategy) pair compiles exactly once into a process-wide cache;
// every Run gets fresh metrics on a shared bounded worker pool.
func ExamplePrepare() {
	env := trance.Env{"R": trance.BagOf(trance.Tup(
		"name", trance.StringT,
		"items", trance.BagOf(trance.Tup("qty", trance.IntT)),
	))}
	q := trance.ForIn("r", trance.V("R"),
		trance.SingOf(trance.Record(
			"name", trance.P(trance.V("r"), "name"),
			"big", trance.ForIn("it", trance.P(trance.V("r"), "items"),
				trance.IfThen(trance.GtOf(trance.P(trance.V("it"), "qty"), trance.C(int64(10))),
					trance.SingOf(trance.V("it")))),
		)))

	pq, err := trance.Prepare(q, trance.PrepareOptions{
		Name:       "big-items",
		Env:        env,
		Strategies: []trance.Strategy{trance.Standard, trance.ShredUnshred},
	})
	if err != nil {
		fmt.Println("prepare failed:", err)
		return
	}

	// Run the same compiled plans over two different datasets.
	for day, data := range []map[string]trance.Bag{
		{"R": {trance.Tuple{"alice", trance.Bag{trance.Tuple{int64(3)}, trance.Tuple{int64(12)}}}}},
		{"R": {trance.Tuple{"bob", trance.Bag{trance.Tuple{int64(40)}}}}},
	} {
		for _, strat := range []trance.Strategy{trance.Standard, trance.ShredUnshred} {
			res, err := pq.Run(context.Background(), pq.BindData(data), strat)
			if err != nil {
				fmt.Println("run failed:", err)
				return
			}
			for _, row := range res.Output.CollectSorted() {
				fmt.Printf("day %d %s: %s\n", day, strat, trance.FormatValue(trance.Tuple(row)))
			}
		}
	}
	// Output:
	// day 0 STANDARD: ⟨"alice", {⟨12⟩}⟩
	// day 0 SHRED+UNSHRED: ⟨"alice", {⟨12⟩}⟩
	// day 1 STANDARD: ⟨"bob", {⟨40⟩}⟩
	// day 1 SHRED+UNSHRED: ⟨"bob", {⟨40⟩}⟩
}
