package parse_test

import (
	"context"
	"flag"
	"fmt"
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
				parsedRes := runProgram([]nrc.Assignment{{Name: "Q", Expr: r.Expr}}, env, inputs, strat, cfg)
				if parsedRes.Failed() {
					t.Fatalf("%s parsed run: %v", strat, parsedRes.Err)
				}
				builtRes := runProgram([]nrc.Assignment{{Name: "Q", Expr: built}}, env, inputs, strat, cfg)
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
		a := runProgram(pr.Program.Stmts, biomed.Env(), inputs, strat, cfg)
		if a.Failed() {
			t.Fatalf("%s parsed pipeline: step %d: %v", strat, a.FailedStep, a.Err)
		}
		// Rebuild the builder steps each run: compilation annotates ASTs.
		b := runProgram(biomed.Steps(), biomed.Env(), inputs, strat, cfg)
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

// runProgram compiles a program through runner, planning without
// statistics, and runs it over nested inputs.
func runProgram(steps []nrc.Assignment, env nrc.Env, inputs map[string]value.Bag, strat runner.Strategy, cfg runner.Config) *runner.Result {
	envs, _, err := runner.ResolveSteps(steps, env)
	if err != nil {
		return runner.Failure(strat, err)
	}
	prog := make([]*runner.Compiled, len(steps))
	for i, st := range steps {
		eff := runner.StepStrategy(strat, prog[0], i == len(steps)-1)
		if prog[i], err = runner.CompileStep(st.Expr, envs[i], eff, cfg, nil, st.Name); err != nil {
			return runner.Failure(strat, err)
		}
	}
	dctx := runner.NewRunContext(cfg)
	rows, idxs, err := runner.NewInputs(inputs, env).Bind(prog, dctx.Parallelism)
	if err != nil {
		return runner.Failure(strat, err)
	}
	return runner.Execute(context.Background(), prog, rows, idxs, dctx, runner.ExecOptions{})
}
