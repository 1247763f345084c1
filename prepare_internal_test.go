package trance

import (
	"testing"

	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/plan"
)

// TestFingerprintCoversStatistics: a step's plan-cache key changes with the
// statistics it is compiled against — their presence, the generation they
// were collected from and a column's index flag — and not with an
// execution-only knob.
func TestFingerprintCoversStatistics(t *testing.T) {
	st := PipelineStep{Name: "Q", Expr: nrc.ForIn("r", nrc.V("R"), nrc.SingOf(nrc.V("r")))}
	env := Env{"R": nrc.BagOf(nrc.Tup("a", nrc.IntT))}
	cfg := DefaultConfig()
	stats := func(gen int64, indexed bool) map[string]plan.TableEstimate {
		return map[string]plan.TableEstimate{"R": {Generation: gen, Rows: 3, Cols: map[string]plan.ColEstimate{"a": {NDV: 3, Indexed: indexed}}}}
	}
	fps := map[string]string{
		"none":    fingerprint(st, env, cfg, nil),
		"gen 1":   fingerprint(st, env, cfg, stats(1, false)),
		"gen 2":   fingerprint(st, env, cfg, stats(2, false)),
		"indexed": fingerprint(st, env, cfg, stats(1, true)),
	}
	seen := map[string]string{}
	for name, fp := range fps {
		if other, dup := seen[fp]; dup {
			t.Fatalf("statistics %q and %q share a fingerprint", name, other)
		}
		seen[fp] = name
	}
	wide := cfg
	wide.Parallelism *= 2
	if fingerprint(st, env, wide, stats(1, true)) != fps["indexed"] {
		t.Fatal("an execution-only knob changed the fingerprint")
	}
}
