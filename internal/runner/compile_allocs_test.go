package runner_test

import (
	"runtime"
	"testing"

	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/runner"
	"github.com/trance-go/trance/internal/tpch"
)

// TestCompileAllocs pins what compiling a never-seen query costs: a compile
// pass, the unnesting compiler's included, asks each plan node for its
// columns once (the per-pass plan.Schemas memo), not once per ancestor that
// asks, so the level-2 nested-to-nested standard compile — where Γ over μ
// over addIndex nest three deep — allocates about 1 850 objects and 153 KB.
// When every call rebuilt its input's schema, and Γ and μ built theirs twice,
// it allocated 5 214 objects and 1.08 MB; with the plan passes memoized and
// the unnesting compiler not, 2 122 objects and 196 KB.
func TestCompileAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are measured on full runs")
	}
	q := tpch.Query(tpch.NestedToNested, 2, false)
	env := tpch.Env(tpch.NestedToNested, 2, false)
	compile := func() {
		if _, err := runner.CompileStep(nrc.Copy(q), env, runner.Standard, runner.DefaultConfig(), nil, "Q"); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 20
	if allocs := testing.AllocsPerRun(runs, compile); allocs > 2200 {
		t.Errorf("a compile allocates %.0f objects, want at most 2 200", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		compile()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > 180<<10 {
		t.Errorf("a compile allocates %d bytes, want at most 180 KiB", b)
	}
}
