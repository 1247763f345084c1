// Command quickstart runs the paper's Example 1 (the COP/Part query) end to
// end on the Catalog/Session API: the nested input arrives as JSON (NDJSON,
// schema inferred — objects become tuples, arrays become bags, yyyy-mm-dd
// strings become dates), the query is prepared once against the catalog, and
// both the standard and the shredded route (read nested) evaluate it on the
// parallel pipelined dataflow engine, returning JSON. Along the way it
// prints the NRC query, the standard algebraic plan, and the shredded flat
// program (see docs/ARCHITECTURE.md).
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"strings"

	"github.com/trance-go/trance"
)

// The nested input COP (customers → orders → purchased parts) and the flat
// Part relation, as they would arrive over the wire: newline-delimited JSON.
const copJSON = `
{"cname": "alice", "corders": [
  {"odate": "2020-01-15", "oparts": [{"pid": 1, "qty": 2.0}, {"pid": 2, "qty": 4.0}]}
]}
{"cname": "bob", "corders": []}
`

const partJSON = `
{"pid": 1, "pname": "bolt", "price": 2.0}
{"pid": 2, "pname": "nut", "price": 1.5}
`

func main() {
	// Ingest both datasets; the nested types are inferred from the JSON.
	cat := trance.NewCatalog()
	for name, src := range map[string]string{"COP": copJSON, "Part": partJSON} {
		info, err := cat.RegisterJSON(name, strings.NewReader(src))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ingested %s: %d rows, schema %s\n", info.Name, info.Rows, info.Type)
	}

	// The running example: per customer and order, total spent per part name.
	q := trance.ForIn("cop", trance.V("COP"),
		trance.SingOf(trance.Record(
			"cname", trance.P(trance.V("cop"), "cname"),
			"corders", trance.ForIn("co", trance.P(trance.V("cop"), "corders"),
				trance.SingOf(trance.Record(
					"odate", trance.P(trance.V("co"), "odate"),
					"oparts", trance.SumByOf(
						trance.ForIn("op", trance.P(trance.V("co"), "oparts"),
							trance.ForIn("p", trance.V("Part"),
								trance.IfThen(
									trance.EqOf(trance.P(trance.V("op"), "pid"), trance.P(trance.V("p"), "pid")),
									trance.SingOf(trance.Record(
										"pname", trance.P(trance.V("p"), "pname"),
										"total", trance.MulOf(trance.P(trance.V("op"), "qty"), trance.P(trance.V("p"), "price")),
									))))),
						[]string{"pname"}, []string{"total"}),
				))),
		)))

	fmt.Println("\n=== NRC query (paper Example 1) ===")
	fmt.Println(trance.Print(q))

	// The same query in its textual surface form (docs/QUERYLANG.md): what
	// trance.Print emitted above is exactly this language, and parsing it
	// yields a structurally identical query — same fingerprint, same
	// compiled plans. Serving paths take text directly via
	// Session.PrepareText, `trance query -q`, and tranced's POST /query.
	const qText = `
for cop in COP union
  { {
      cname := cop.cname,
      corders := for co in cop.corders union
        { {
            odate := co.odate,
            oparts := sumby[pname; total](
              for op in co.oparts union
                for p in Part union
                  if op.pid == p.pid then
                    { { pname := p.pname, total := op.qty * p.price } })
        } }
  } }`
	parsed, err := trance.Parse(qText)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== Same query, parsed from text ===")
	fmt.Printf("parse(text) == builder AST: %v\n", trance.Print(parsed) == trance.Print(q))

	// Prepare once against the catalog (free variables COP and Part resolve
	// to the ingested datasets, whose statistics the planner reads), then run
	// under both routes: compiled plans land in the process-wide cache,
	// results come back as JSON.
	sq, err := cat.NewSession(trance.SessionOptions{}).PrepareNamed("example1", q)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := sq.Prepared().Explain(trance.Standard)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n=== Standard route: algebraic plan (paper Figure 3), before and after the optimizer ===")
	fmt.Println(plan)

	prog, err := trance.ExplainShredded(q, cat.Env())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== Shredded route: materialized flat program (paper Example 6) ===")
	fmt.Println(prog)

	for _, strat := range []trance.Strategy{trance.Standard, trance.Shred} {
		res, err := sq.Run(context.Background(), strat)
		if err != nil {
			log.Fatalf("%s failed: %v", strat, err)
		}
		rows, _ := res.JSON(0) // 0: no row limit; nested rows (res.Top(): the shredded top bag)
		fmt.Printf("=== %s result (JSON) ===\n", strat)
		for _, row := range rows {
			b, _ := json.Marshal(row)
			fmt.Println("  ", string(b))
		}
		fmt.Println()
	}
}
