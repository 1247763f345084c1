package trance_test

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"github.com/trance-go/trance"
)

// ExampleSessionQuery_Run registers a small dataset in a catalog, prepares
// an NRC query against it in a session and runs it through the standard
// route: for each row of R, emit a record with the incremented a attribute.
func ExampleSessionQuery_Run() {
	cat := trance.NewCatalog()
	err := cat.Register("R", trance.BagOf(trance.Tup("a", trance.IntT)),
		trance.Bag{trance.Tuple{int64(1)}, trance.Tuple{int64(2)}, trance.Tuple{int64(3)}})
	if err != nil {
		fmt.Println("register failed:", err)
		return
	}
	q := trance.ForIn("x", trance.V("R"),
		trance.SingOf(trance.Record("b", trance.AddOf(trance.P(trance.V("x"), "a"), trance.C(int64(1))))))

	sq, err := cat.NewSession(trance.SessionOptions{}).PrepareNamed("", q)
	if err != nil {
		fmt.Println("prepare failed:", err)
		return
	}
	res, err := sq.Run(context.Background(), trance.Standard)
	if err != nil {
		fmt.Println("run failed:", err)
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

// ExampleSessionQuery_Run_strategies runs one nested query under the standard
// route and the shredded route, whose Output is read nested (paper Section
// 6's STANDARD vs SHRED+UNSHRED), and checks they agree — the
// repository-wide invariant every strategy is tested against.
func ExampleSessionQuery_Run_strategies() {
	order := trance.Tup("pid", trance.IntT, "qty", trance.IntT)
	cat := trance.NewCatalog()
	if err := cat.Register("CO", trance.BagOf(trance.Tup("cname", trance.StringT, "orders", trance.BagOf(order))), trance.Bag{
		trance.Tuple{"alice", trance.Bag{trance.Tuple{int64(1), int64(5)}, trance.Tuple{int64(2), int64(7)}}},
		trance.Tuple{"bob", trance.Bag{}},
	}); err != nil {
		fmt.Println("register failed:", err)
		return
	}
	if err := cat.Register("Part", trance.BagOf(trance.Tup("pid", trance.IntT, "pname", trance.StringT)), trance.Bag{
		trance.Tuple{int64(1), "bolt"}, trance.Tuple{int64(2), "nut"},
	}); err != nil {
		fmt.Println("register failed:", err)
		return
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

	sq, err := cat.NewSession(trance.SessionOptions{}).PrepareNamed("", q)
	if err != nil {
		fmt.Println("prepare failed:", err)
		return
	}
	var results [2]trance.Bag
	for i, strat := range []trance.Strategy{trance.Standard, trance.Shred} {
		res, err := sq.Run(context.Background(), strat)
		if err != nil {
			fmt.Println("run failed:", err)
			return
		}
		for _, r := range res.Output.CollectSorted() {
			results[i] = append(results[i], trance.Tuple(r))
		}
	}
	fmt.Println("strategies agree:", trance.ValuesEqual(results[0], results[1]))
	for _, v := range results[0] {
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
	res, err := sq.Run(context.Background(), trance.Shred)
	if err != nil {
		fmt.Println("run failed:", err)
		return
	}
	rows, _ := res.JSON(0) // 0: no row limit
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
// result comes back as JSON — here through the shredded route, read nested,
// exercising value shredding of data no query was compiled for.
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
	// engine metrics; JSON renders the rows by that schema.
	res, err := sq.Run(context.Background(), trance.Shred)
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

// ExampleCatalog_Append prepares a query once and evaluates it many times —
// across strategies and dataset generations — the pattern a serving process
// uses. Each (query, strategy) pair compiles exactly once per generation into
// a process-wide cache; an Append installs a new generation, which the next
// Run resolves to, so the same session query serves the appended rows.
func ExampleCatalog_Append() {
	cat := trance.NewCatalog()
	err := cat.Register("R", trance.BagOf(trance.Tup(
		"name", trance.StringT,
		"items", trance.BagOf(trance.Tup("qty", trance.IntT)),
	)), trance.Bag{trance.Tuple{"alice", trance.Bag{trance.Tuple{int64(3)}, trance.Tuple{int64(12)}}}})
	if err != nil {
		fmt.Println("register failed:", err)
		return
	}
	q := trance.ForIn("r", trance.V("R"),
		trance.SingOf(trance.Record(
			"name", trance.P(trance.V("r"), "name"),
			"big", trance.ForIn("it", trance.P(trance.V("r"), "items"),
				trance.IfThen(trance.GtOf(trance.P(trance.V("it"), "qty"), trance.C(int64(10))),
					trance.SingOf(trance.V("it")))),
		)))
	sq, err := cat.NewSession(trance.SessionOptions{}).PrepareNamed("big-items", q)
	if err != nil {
		fmt.Println("prepare failed:", err)
		return
	}

	for day := range 2 {
		if day == 1 {
			if _, err := cat.Append("R", trance.Bag{trance.Tuple{"bob", trance.Bag{trance.Tuple{int64(40)}}}}); err != nil {
				fmt.Println("append failed:", err)
				return
			}
		}
		for _, strat := range []trance.Strategy{trance.Standard, trance.Shred} {
			res, err := sq.Run(context.Background(), strat)
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
	// day 0 SHRED: ⟨"alice", {⟨12⟩}⟩
	// day 1 STANDARD: ⟨"alice", {⟨12⟩}⟩
	// day 1 STANDARD: ⟨"bob", {⟨40⟩}⟩
	// day 1 SHRED: ⟨"alice", {⟨12⟩}⟩
	// day 1 SHRED: ⟨"bob", {⟨40⟩}⟩
}
