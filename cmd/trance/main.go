// Command trance is the CLI of the library: it prints the standard plan and
// the shredded program of built-in benchmark queries, runs them under any
// strategy, and queries ad-hoc JSON datasets with inferred nested schemas.
//
// Usage:
//
//	trance explain  -class nested-to-nested -level 2
//	trance run      -class nested-to-flat   -level 2 -strategy shred
//	trance query    -input data.json -strategy shred+unshred
//	trance biomed   -full
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"github.com/trance-go/trance"
	"github.com/trance-go/trance/internal/biomed"
	"github.com/trance-go/trance/internal/runner"
	"github.com/trance-go/trance/internal/tpch"
	"github.com/trance-go/trance/internal/value"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "explain":
		cmdExplain(os.Args[2:])
	case "run":
		cmdRun(os.Args[2:])
	case "query":
		cmdQuery(os.Args[2:])
	case "biomed":
		cmdBiomed(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  trance explain -class <class> -level <0-4> [-wide]
  trance run     -class <class> -level <0-4> [-wide] -strategy <name> [-skew 0-4]
  trance query   [-input <data.json|->] [-name R] [-q '<query text>'] [-strategy <name>] [-show N] [-explain] [-analyze] [-timing]
  trance biomed  [-full] [-strategy <name>]

classes:    flat-to-nested | nested-to-nested | nested-to-flat
strategies: standard | sparksql | shred | shred+unshred | standard-skew | shred-skew
            shred+unshred-skew | auto (statistics-driven route selection)

query ingests NDJSON or a JSON array (objects become tuples, arrays become
bags, schema inferred with null/numeric widening), registers it in a catalog,
and queries it under the chosen strategy, printing NDJSON rows to stdout.
Without -q the whole dataset is scanned; with -q the textual NRC query (see
docs/QUERYLANG.md) runs against it, e.g.

  trance query -input orders.json -name R \
    -q 'for x in R union if x.qty > 10 then { x }'

-q also accepts multi-statement programs (name := expr; ... result-expr).`)
	os.Exit(2)
}

func parseClass(s string) tpch.QueryClass {
	switch s {
	case "flat-to-nested":
		return tpch.FlatToNested
	case "nested-to-nested":
		return tpch.NestedToNested
	case "nested-to-flat":
		return tpch.NestedToFlat
	}
	log.Fatalf("unknown class %q", s)
	return 0
}

func checkLevel(level int) {
	if err := tpch.ValidateLevel(level); err != nil {
		log.Fatal(err)
	}
}

func parseStrategy(s string) runner.Strategy {
	strat, ok := runner.ParseStrategy(s)
	if !ok {
		log.Fatalf("unknown strategy %q", s)
	}
	return strat
}

func cmdExplain(args []string) {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	class := fs.String("class", "nested-to-nested", "query class")
	level := fs.Int("level", 2, "nesting level")
	wide := fs.Bool("wide", false, "wide variant")
	_ = fs.Parse(args)

	qc := parseClass(*class)
	checkLevel(*level)
	q := tpch.Query(qc, *level, *wide)
	env := tpch.Env(qc, *level, *wide)

	fmt.Println("=== NRC ===")
	fmt.Println(trance.Print(q))
	p, err := trance.ExplainStandard(q, env)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n=== standard plan ===")
	fmt.Println(p)
	sp, err := trance.ExplainShredded(q, env)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== shredded program ===")
	fmt.Println(sp)
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	class := fs.String("class", "nested-to-nested", "query class")
	level := fs.Int("level", 2, "nesting level")
	wide := fs.Bool("wide", false, "wide variant")
	strategy := fs.String("strategy", "shred", "evaluation strategy")
	skew := fs.Int("skew", 0, "skew factor")
	customers := fs.Int("customers", 200, "customers to generate")
	show := fs.Int("show", 5, "result rows to print")
	_ = fs.Parse(args)

	qc := parseClass(*class)
	checkLevel(*level)
	tables := tpch.Generate(tpch.Config{
		Customers: *customers, OrdersPerCustomer: 6, LinesPerOrder: 4,
		Parts: 100, SkewFactor: *skew, Seed: 1,
	})
	q := tpch.Query(qc, *level, *wide)
	env := tpch.Env(qc, *level, *wide)
	inputs := map[string]value.Bag{}
	if qc == tpch.FlatToNested {
		inputs = tables.Inputs()
	} else {
		inputs["NDB"] = tpch.BuildNested(tables, *level, true)
		inputs["Part"] = tables.Part
	}

	res := runner.Run(runner.Job{Query: q, Env: env, Inputs: inputs},
		parseStrategy(*strategy), trance.DefaultConfig())
	if res.Failed() {
		log.Fatalf("run failed: %v", res.Err)
	}
	fmt.Printf("%s: %v, rows=%d, %s\n", res.Strategy, res.Elapsed, res.Output.Count(), res.Metrics)
	if *show > 0 { // CollectTop(0) would be every row
		rows, _ := res.Output.CollectTop(*show)
		for _, row := range rows {
			fmt.Println("  ", value.Format(value.Tuple(row)))
		}
	}
}

// cmdQuery is the JSON-in → query → JSON-out path: ingest a JSON dataset
// into a catalog (schema inferred), prepare either an identity scan or an
// ad-hoc textual NRC query or program (-q, see docs/QUERYLANG.md) through a
// session, run it under the chosen strategy, and print the rows back as
// NDJSON. Schema and timing go to stderr so stdout stays pipeable. Parse and
// type errors in -q are reported as caret diagnostics pointing into the text.
func cmdQuery(args []string) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	input := fs.String("input", "", "JSON input: NDJSON or a JSON array; a file path or - for stdin")
	name := fs.String("name", "R", "dataset (and query variable) name")
	text := fs.String("q", "", "textual NRC query or program over the ingested dataset (default: scan it all)")
	strategy := fs.String("strategy", "standard", "evaluation strategy")
	show := fs.Int("show", 0, "result rows to print (0 = all)")
	explain := fs.Bool("explain", false, "print the compiled plans before and after the rule-based optimizer (predicate pushdown etc.) to stderr")
	analyze := fs.Bool("analyze", false, "run with per-operator instrumentation and print the analyzed plans (actual rows, wall, q-error) to stderr")
	timing := fs.Bool("timing", false, "print the request trace (per-phase wall-clock breakdown) to stderr")
	_ = fs.Parse(args)

	if *input == "" && *text == "" {
		log.Fatal("query: -input and/or -q is required (see trance help)")
	}
	cat := trance.NewCatalog()
	if *input != "" {
		var src io.Reader = os.Stdin
		if *input != "-" {
			f, err := os.Open(*input)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			src = f
		}
		info, err := cat.RegisterJSON(*name, src)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "dataset %s: %d rows, %d bytes\nschema: %s\n", info.Name, info.Rows, info.Bytes, info.Type)
	}

	sess := cat.NewSession(trance.SessionOptions{})
	strat := parseStrategy(*strategy)
	t := trance.NewTrace("trance query")
	ctx := trance.ContextWithTrace(context.Background(), t)
	// A bare expression is a query; any other text parses as a program (a
	// single assignment like `y := expr` lands there too, and a genuine syntax
	// error reports from the program parse, which accepts a superset).
	var sq *trance.SessionQuery
	var err error
	if *text == "" {
		sq, err = sess.PrepareNamed(*name, trance.ForIn("x", trance.V(*name), trance.SingOf(trance.V("x"))))
	} else if _, perr := trance.Parse(*text); perr == nil {
		sq, err = sess.PrepareText("adhoc", *text)
	} else {
		sq, err = sess.PrepareTextPipeline(*text)
	}
	var res *trance.Result
	if err == nil {
		res, err = runSessionQuery(ctx, sq, strat, *explain, *analyze)
	}
	if err != nil {
		log.Fatalf("query failed:\n%v", err)
	}
	returned, total, err := res.WriteJSON(ctx, os.Stdout, *show, "", "\n")
	if err != nil {
		log.Fatal(err)
	}
	t.Finish()
	if returned > 0 {
		fmt.Println()
	}
	if returned < total {
		fmt.Fprintf(os.Stderr, "… %d more rows (-show 0 for all)\n", total-returned)
	}
	if *timing {
		fmt.Fprint(os.Stderr, t.Tree())
	}
	fmt.Fprintf(os.Stderr, "%s: %d rows\n", strat, total)
}

// runSessionQuery evaluates a prepared query or program. With explain set,
// the compiled plans (before and after the rule-based optimizer) go to stderr
// first; analyze instruments the run and prints the analyzed plans (actual
// rows, wall times, q-error) of what ran.
func runSessionQuery(ctx context.Context, sq *trance.SessionQuery, strat trance.Strategy, explain, analyze bool) (*trance.Result, error) {
	if explain {
		// Compile errors surface when the query actually runs, so they are
		// only logged here.
		if text, err := sq.Prepared().Explain(strat); err != nil {
			fmt.Fprintf(os.Stderr, "explain unavailable: %v\n", err)
		} else {
			fmt.Fprintln(os.Stderr, text)
		}
	}
	var opts []trance.RunOption
	if analyze {
		opts = append(opts, trance.Analyze())
	}
	res, err := sq.Run(ctx, strat, opts...)
	if err != nil {
		return nil, err
	}
	if analyze {
		fmt.Fprintln(os.Stderr, res.ExplainAnalyze())
	}
	return res, nil
}

func cmdBiomed(args []string) {
	fs := flag.NewFlagSet("biomed", flag.ExitOnError)
	full := fs.Bool("full", false, "full dataset")
	strategy := fs.String("strategy", "shred", "evaluation strategy")
	_ = fs.Parse(args)

	cfg := biomed.SmallConfig()
	if *full {
		cfg = biomed.FullConfig()
	}
	inputs := biomed.Generate(cfg)
	res := runner.RunPipeline(biomed.Steps(), biomed.Env(), inputs,
		parseStrategy(*strategy), trance.DefaultConfig())
	for i, d := range res.StepElapsed {
		fmt.Printf("step%d: %v\n", i+1, d)
	}
	if res.Failed() {
		log.Fatalf("pipeline failed at step %d: %v", res.FailedStep+1, res.Err)
	}
	fmt.Printf("final rows=%d, %s\n", res.Output.Count(), res.Metrics)
}
