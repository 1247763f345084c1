package parse_test

import (
	"flag"
	"fmt"
	"github.com/trance-go/trance"
	"os"
	"path/filepath"
	"testing"

	"github.com/trance-go/trance/internal/biomed"
	"github.com/trance-go/trance/internal/dataflow"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/parse"
	"github.com/trance-go/trance/internal/runner"
	"github.com/trance-go/trance/internal/tpch"
	"github.com/trance-go/trance/internal/value"
)

// -update regenerates the text fixtures from the builder ASTs:
//
//	go test ./internal/parse -run TestFixtures -update
var update = flag.Bool("update", false, "rewrite testdata fixtures from the builder queries")

// fixtureLevels are the representative nesting depths covered by the text
// fixtures (the depths tranced preloads by default).
var fixtureLevels = []int{0, 1, 2}

// fixtureStrategies are the three headline execution routes of the paper.
var fixtureStrategies = []runner.Strategy{runner.Standard, runner.Shred, runner.ShredUnshred}

type tpchFixture struct {
	class tpch.QueryClass
	level int
}

func (f tpchFixture) file() string {
	return fmt.Sprintf("tpch-%s-l%d.nrc", f.class, f.level)
}

func tpchFixtures() []tpchFixture {
	var out []tpchFixture
	for _, class := range []tpch.QueryClass{tpch.FlatToNested, tpch.NestedToNested, tpch.NestedToFlat} {
		for _, level := range fixtureLevels {
			out = append(out, tpchFixture{class: class, level: level})
		}
	}
	return out
}

func fixturePath(name string) string { return filepath.Join("testdata", name) }

func readFixture(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(fixturePath(name))
	if err != nil {
		t.Fatalf("read fixture (run `go test ./internal/parse -run TestFixtures -update` to regenerate): %v", err)
	}
	return string(b)
}

// TestFixturesTPCH asserts, for every TPC-H fixture, that the text form
// parses to the exact structure of the builder query and that running the
// parsed query matches the builder query's output under STANDARD, SHRED,
// and SHRED+UNSHRED.
func TestFixturesTPCH(t *testing.T) {
	tables := tpch.Generate(tpch.Config{
		Customers: 12, OrdersPerCustomer: 4, LinesPerOrder: 3,
		Parts: 30, SkewFactor: 0, Seed: 7,
	})
	for _, f := range tpchFixtures() {
		f := f
		t.Run(f.file(), func(t *testing.T) {
			built := tpch.Query(f.class, f.level, false)
			if *update {
				if err := os.WriteFile(fixturePath(f.file()), []byte(nrc.Print(built)+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			text := readFixture(t, f.file())
			r, err := parse.Query(text)
			if err != nil {
				t.Fatalf("parse fixture: %v", err)
			}
			// Structural equality via the canonical print.
			if got, want := nrc.Print(r.Expr), nrc.Print(built); got != want {
				t.Fatalf("fixture parses to a different query:\n--- parsed\n%s\n--- builder\n%s", got, want)
			}

			env := tpch.Env(f.class, f.level, false)
			inputs := map[string]value.Bag{}
			if f.class == tpch.FlatToNested {
				inputs = tables.Inputs()
			} else {
				inputs["NDB"] = tpch.BuildNested(tables, f.level, true)
				inputs["Part"] = tables.Part
			}
			cfg := runner.DefaultConfig()
			for _, strat := range fixtureStrategies {
				parsedRes := trance.Run(trance.Job{Query: r.Expr, Env: env, Inputs: inputs}, strat, cfg)
				if parsedRes.Failed() {
					t.Fatalf("%s parsed run: %v", strat, parsedRes.Err)
				}
				trance.ResetPlanCache() // compile the builder query, not serve the parsed one's plans
				builtRes := trance.Run(trance.Job{Query: built, Env: env, Inputs: inputs}, strat, cfg)
				if builtRes.Failed() {
					t.Fatalf("%s builder run: %v", strat, builtRes.Err)
				}
				a := collectBag(parsedRes.Output.CollectSorted())
				b := collectBag(builtRes.Output.CollectSorted())
				if !value.Equal(a, b) {
					t.Fatalf("%s: parsed and builder outputs differ (%d vs %d rows)", strat, len(a), len(b))
				}
				if len(a) == 0 {
					t.Fatalf("%s: empty output — fixture exercises nothing", strat)
				}
			}
		})
	}
}

// TestFixtureBiomed does the same for the five-step biomedical pipeline,
// expressed as a multi-statement program fixture.
func TestFixtureBiomed(t *testing.T) {
	steps := biomed.Steps()
	prog := &nrc.Program{}
	for _, st := range steps {
		prog.Stmts = append(prog.Stmts, st)
	}
	if *update {
		if err := os.WriteFile(fixturePath("biomed-e2e.nrc"), []byte(nrc.PrintProgram(prog)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	text := readFixture(t, "biomed-e2e.nrc")
	pr, err := parse.Program(text)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	if got, want := nrc.PrintProgram(pr.Program), nrc.PrintProgram(prog); got != want {
		t.Fatalf("fixture parses to a different program:\n--- parsed\n%s\n--- builder\n%s", got, want)
	}

	inputs := biomed.Generate(biomed.SmallConfig())
	cfg := runner.DefaultConfig()
	for _, strat := range fixtureStrategies {
		a := trance.RunPipeline(pr.Program.Stmts, biomed.Env(), inputs, strat, cfg)
		if a.Failed() {
			t.Fatalf("%s parsed pipeline: step %d: %v", strat, a.FailedStep, a.Err)
		}
		// Rebuild the builder steps each run: compilation annotates ASTs. The
		// builder steps print like the parsed ones, so only an empty plan cache
		// compiles them rather than serving the parsed program's plans.
		trance.ResetPlanCache()
		b := trance.RunPipeline(biomed.Steps(), biomed.Env(), inputs, strat, cfg)
		if b.Failed() {
			t.Fatalf("%s builder pipeline: step %d: %v", strat, b.FailedStep, b.Err)
		}
		av := collectBag(a.Output.CollectSorted())
		bv := collectBag(b.Output.CollectSorted())
		if !value.Equal(av, bv) {
			t.Fatalf("%s: parsed and builder pipeline outputs differ (%d vs %d rows)", strat, len(av), len(bv))
		}
		if len(av) == 0 {
			t.Fatalf("%s: empty pipeline output", strat)
		}
	}
}

func collectBag(rows []dataflow.Row) value.Bag {
	out := make(value.Bag, len(rows))
	for i, r := range rows {
		out[i] = value.Tuple(r)
	}
	return out
}
