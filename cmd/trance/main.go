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
	"strings"
	"time"

	"github.com/trance-go/trance"
	"github.com/trance-go/trance/internal/biomed"
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
            shred and shred-skew print the shredded top bag; shred+unshred and
            shred+unshred-skew run the same route and print its nested answer

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

func parseStrategy(s string) trance.Strategy {
	strat, ok := trance.ParseStrategy(s)
	if !ok {
		log.Fatalf("unknown strategy %q", s)
	}
	return strat
}

// read is a run of the strategy named name in the form the name asks for — a
// shredded run's top bag (res.Top()) for shred and shred-skew, the nested
// answer for every other name — beside the paper's name for that read and
// whether it stitches: a shredded run read nested is its Shred+Unshred.
func read(name string, res *trance.Result) (*trance.Result, string, bool) {
	if !res.Strategy.IsShredded() || name == "shred" || name == "shred-skew" {
		return res.Top(), res.Strategy.String(), false
	}
	return res, strings.Replace(res.Strategy.String(), "SHRED", "SHRED+UNSHRED", 1), true
}

// defaultCustomers sizes the TPC-H data run generates by default, and the data
// explain plans over.
const defaultCustomers = 200

// job is a built-in query and the catalog holding its inputs.
type job struct {
	query trance.Expr
	cat   *trance.Catalog
}

// registered registers inputs, each under its type in env, in a fresh
// catalog, which collects their statistics — what the cost model and
// placement plan from.
func registered(env trance.Env, inputs map[string]value.Bag) *trance.Catalog {
	cat := trance.NewCatalog()
	for name, t := range env {
		if err := cat.Register(name, t, inputs[name]); err != nil {
			log.Fatal(err)
		}
	}
	return cat
}

// tpchJob is the built-in query of the class and level over generated TPC-H
// data registered in a catalog, and the default config to run it under.
func tpchJob(class tpch.QueryClass, level int, wide bool, customers, skew int) (job, trance.Config) {
	tables := tpch.Generate(tpch.Config{
		Customers: customers, OrdersPerCustomer: 6, LinesPerOrder: 4,
		Parts: 100, SkewFactor: skew, Seed: 1,
	})
	inputs := tables.Inputs()
	if class != tpch.FlatToNested {
		inputs = map[string]value.Bag{"NDB": tpch.BuildNested(tables, level, true), "Part": tables.Part}
	}
	return job{query: tpch.Query(class, level, wide), cat: registered(tpch.Env(class, level, wide), inputs)}, trance.DefaultConfig()
}

// prepare prepares the job's query in a session under cfg over its catalog.
func (j job) prepare(cfg trance.Config) (*trance.SessionQuery, error) {
	return j.cat.NewSession(trance.SessionOptions{Config: &cfg}).PrepareNamed("", j.query)
}

func cmdExplain(args []string) {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	class := fs.String("class", "nested-to-nested", "query class")
	level := fs.Int("level", 2, "nesting level")
	wide := fs.Bool("wide", false, "wide variant")
	_ = fs.Parse(args)

	qc := parseClass(*class)
	checkLevel(*level)
	j, cfg := tpchJob(qc, *level, *wide, defaultCustomers, 0)

	fmt.Println("=== NRC ===")
	fmt.Println(trance.Print(j.query))
	sq, err := j.prepare(cfg)
	if err != nil {
		log.Fatal(err)
	}
	plans, err := sq.Prepared().Explain(trance.Standard)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n=== standard plan ===")
	fmt.Println(plans)
	sp, err := trance.ExplainShredded(j.query, j.cat.Env())
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
	customers := fs.Int("customers", defaultCustomers, "customers to generate")
	show := fs.Int("show", 5, "result rows to print")
	_ = fs.Parse(args)

	qc := parseClass(*class)
	checkLevel(*level)
	j, cfg := tpchJob(qc, *level, *wide, *customers, *skew)
	if err := runJob(os.Stdout, j, *strategy, cfg, *show); err != nil {
		log.Fatalf("run failed: %v", err)
	}
}

// runJob runs j and writes run's report to w: the header line — runtime,
// rows and engine metrics — then the first show rows. A shredded route read
// nested counts stitching every nested row in its runtime, shown beside it.
func runJob(w io.Writer, j job, name string, cfg trance.Config, show int) error {
	sq, err := j.prepare(cfg)
	if err != nil {
		return err
	}
	res, err := sq.Run(context.Background(), parseStrategy(name))
	if res != nil {
		// Time the whole shredded output, as the paper does: a reply would
		// defer what it need not read.
		res = res.Materialized()
		err = res.Err // the run's own error, without the query label
	}
	if err != nil {
		return err
	}
	res, label, stitched := read(name, res)
	elapsed := res.Elapsed.String()
	if stitched {
		st := stitchTime(res)
		elapsed = fmt.Sprintf("%v (stitch %v)", res.Elapsed+st, st)
	}
	fmt.Fprintf(w, "%s: %s, rows=%d, %s\n", label, elapsed, res.Output.Count(), res.Metrics)
	if show > 0 { // CollectTop(0) would be every row
		top, _, err := res.Output.CollectTop(show)
		if err != nil {
			return err
		}
		for _, row := range top {
			fmt.Fprintln(w, "  ", value.Format(value.Tuple(row)))
		}
	}
	return nil
}

// stitchTime stitches every nested row of res from its shredded output — the
// paper's unshredding step, which runs as the rows are read, outside
// res.Elapsed — and returns how long that took.
func stitchTime(res *trance.Result) time.Duration {
	start := time.Now()
	res.Output.CollectSorted()
	return time.Since(start)
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
	var sq *trance.SessionQuery
	var err error
	if *text == "" {
		sq, err = sess.PrepareNamed(*name, trance.ForIn("x", trance.V(*name), trance.SingOf(trance.V("x"))))
	} else {
		sq, err = sess.PrepareText("adhoc", *text)
	}
	var res *trance.Result
	if err == nil {
		res, err = runSessionQuery(ctx, sq, strat, *explain, *analyze)
	}
	if err != nil {
		log.Fatalf("query failed:\n%v", err)
	}
	res, label, _ := read(*strategy, res)
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
	fmt.Fprintf(os.Stderr, "%s: %d rows\n", label, total)
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
	sq, err := registered(biomed.Env(), biomed.Generate(cfg)).NewSession(trance.SessionOptions{}).PreparePipeline(biomed.Steps())
	if err != nil {
		log.Fatal(err)
	}
	res, err := sq.Run(context.Background(), parseStrategy(*strategy))
	if res == nil {
		log.Fatal(err)
	}
	res = res.Materialized() // time the whole shredded output
	for i, d := range res.StepElapsed {
		fmt.Printf("step%d: %v\n", i+1, d)
	}
	if res.Failed() {
		log.Fatalf("pipeline failed at step %d: %v", res.FailedStep+1, res.Err)
	}
	if _, _, stitched := read(*strategy, res); stitched {
		fmt.Printf("stitch: %v\n", stitchTime(res))
	}
	fmt.Printf("final rows=%d, %s\n", res.Output.Count(), res.Metrics)
}
