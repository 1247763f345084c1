// Golden EXPLAIN fixtures: the before/after-optimizer plans of the TPC-H
// query classes (levels 0–2), the selective pushdown benchmark queries, and
// the biomedical pipeline are pinned under testdata/*.explain so optimizer
// plan changes show up as reviewable diffs. Regenerate with
//
//	go test ./internal/runner -run TestGoldenExplains -update
package runner_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/trance-go/trance/internal/biomed"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/plan"
	"github.com/trance-go/trance/internal/runner"
	"github.com/trance-go/trance/internal/stats"
	"github.com/trance-go/trance/internal/tpch"
	"github.com/trance-go/trance/internal/value"
)

var update = flag.Bool("update", false, "rewrite golden explain fixtures")

func TestGoldenExplains(t *testing.T) {
	cfg := runner.DefaultConfig()
	write := func(name, content string) {
		t.Helper()
		path := filepath.Join("testdata", name)
		if *update {
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden fixture %s (regenerate with -update): %v", path, err)
		}
		if string(want) != content {
			t.Errorf("%s differs from golden fixture (regenerate with -update after reviewing):\n%s",
				path, firstDiff(string(want), content))
		}
	}

	for _, class := range []tpch.QueryClass{tpch.FlatToNested, tpch.NestedToNested, tpch.NestedToFlat} {
		for level := 0; level <= 2; level++ {
			var sb strings.Builder
			q := tpch.Query(class, level, false)
			env := tpch.Env(class, level, false)
			for _, strat := range []runner.Strategy{runner.Standard, runner.Shred} {
				cq, err := runner.CompileStep(q, env, strat, cfg, nil, "Q")
				if err != nil {
					t.Fatalf("%s L%d %s: %v", class, level, strat, err)
				}
				sb.WriteString(cq.Explain())
				sb.WriteString("\n")
			}
			write(fmt.Sprintf("tpch-%s-l%d.explain", class, level), sb.String())
		}
	}

	// The selective pushdown benchmark queries.
	{
		var sb strings.Builder
		q := tpch.NestedToFlatSelective(2)
		env := tpch.Env(tpch.NestedToFlat, 2, false)
		for _, strat := range []runner.Strategy{runner.Standard, runner.Shred} {
			cq, err := runner.CompileStep(q, env, strat, cfg, nil, "Q")
			if err != nil {
				t.Fatalf("selective L2 %s: %v", strat, err)
			}
			sb.WriteString(cq.Explain())
			sb.WriteString("\n")
		}
		write("tpch-selective-l2.explain", sb.String())
	}
	{
		var sb strings.Builder
		cq, err := runner.CompileStep(biomed.SelectiveBurden(), biomed.Env(), runner.Standard, cfg, nil, "Q")
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString(cq.Explain())
		write("biomed-selective.explain", sb.String())
	}

	// The all-narrow Q6-style scan pipeline adhoc_serve's flat_selective
	// requests run: scan → σ → π on both routes, no wide operator.
	{
		var sb strings.Builder
		for _, strat := range []runner.Strategy{runner.Standard, runner.Shred} {
			cq, err := runner.CompileStep(tpch.FlatSelective(), tpch.FlatEnv(), strat, cfg, nil, "Q")
			if err != nil {
				t.Fatalf("flat selective %s: %v", strat, err)
			}
			sb.WriteString(cq.Explain())
			sb.WriteString("\n")
		}
		write("tpch-flat-selective.explain", sb.String())
	}

	// The five-step biomedical pipeline under the standard route.
	{
		prog, err := runner.CompileProgram(biomed.Steps(), biomed.Env(), runner.Standard, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		write("biomed-pipeline.explain", runner.Explain(prog))
	}

	// Cost-annotated plans: the same flat-to-nested query compiled against
	// statistics of a small and a large generated database. At laptop scale
	// every join side fits under the default 64 KB broadcast limit; at the
	// large scale the base relations exceed it, so the identical query flips
	// from broadcast to shuffle joins — the flip the fixtures pin.
	for _, sc := range []struct {
		name string
		gen  tpch.Config
	}{
		{name: "tpch-cost-small.explain",
			gen: tpch.Config{Customers: 20, OrdersPerCustomer: 2, LinesPerOrder: 2, Parts: 10, Seed: 1}},
		{name: "tpch-cost-large.explain",
			gen: tpch.Config{Customers: 400, OrdersPerCustomer: 5, LinesPerOrder: 5, Parts: 5000, Seed: 1}},
	} {
		env := tpch.Env(tpch.FlatToNested, 1, false)
		ests := collectTpchStats(env, tpch.Generate(sc.gen).Inputs())
		var sb strings.Builder
		q := tpch.Query(tpch.FlatToNested, 1, false)
		for _, strat := range []runner.Strategy{runner.Standard, runner.Shred} {
			cq, err := runner.CompileStep(q, env, strat, cfg, ests, "Q")
			if err != nil {
				t.Fatalf("%s %s: %v", sc.name, strat, err)
			}
			sb.WriteString(cq.Explain())
			sb.WriteString("\n")
		}
		write(sc.name, sb.String())
	}
}

// collectTpchStats gathers statistics for every generated relation the
// environment declares, keyed by input name as plan.Annotate expects.
func collectTpchStats(env nrc.Env, inputs map[string]value.Bag) map[string]plan.TableEstimate {
	ests := map[string]plan.TableEstimate{}
	for name, typ := range env {
		bt, ok := typ.(nrc.BagType)
		if !ok {
			continue
		}
		ests[name] = stats.Collect(inputs[name], bt, stats.Options{}).Estimate()
	}
	return ests
}

// firstDiff returns a compact report of the first differing line.
func firstDiff(want, got string) string {
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n- %s\n+ %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("length differs: want %d lines, got %d", len(wl), len(gl))
}

// TestExplainsAreDeterministic compiles the same query twice and requires
// byte-identical Explain output — the property the golden fixtures rely on.
func TestExplainsAreDeterministic(t *testing.T) {
	cfg := runner.DefaultConfig()
	for _, strat := range []runner.Strategy{runner.Standard, runner.Shred} {
		a, err := runner.CompileStep(tpch.Query(tpch.NestedToNested, 2, false), tpch.Env(tpch.NestedToNested, 2, false), strat, cfg, nil, "Q")
		if err != nil {
			t.Fatal(err)
		}
		b, err := runner.CompileStep(tpch.Query(tpch.NestedToNested, 2, false), tpch.Env(tpch.NestedToNested, 2, false), strat, cfg, nil, "Q")
		if err != nil {
			t.Fatal(err)
		}
		if a.Explain() != b.Explain() {
			t.Fatalf("%s: explain output is nondeterministic", strat)
		}
	}
}
