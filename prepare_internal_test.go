package trance

import (
	"testing"

	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/plan"
)

// TestFingerprintCoversStatistics: a step's plan-cache key changes with the
// statistics it is compiled against — their presence, the estimates and a
// column's index flag — and not with the generation they were collected from,
// so two processes over the same data agree on it, nor with an
// execution-only knob.
func TestFingerprintCoversStatistics(t *testing.T) {
	st := PipelineStep{Name: "Q", Expr: nrc.ForIn("r", nrc.V("R"), nrc.SingOf(nrc.V("r")))}
	env := Env{"R": nrc.BagOf(nrc.Tup("a", nrc.IntT))}
	cfg := DefaultConfig()
	stats := func(rows int64, indexed bool) map[string]plan.TableEstimate {
		return map[string]plan.TableEstimate{"R": {Rows: rows, Cols: map[string]plan.ColEstimate{"a": {NDV: 3, Indexed: indexed}}}}
	}
	fps := map[string]string{
		"none":    fingerprint(st, env, cfg, nil),
		"3 rows":  fingerprint(st, env, cfg, stats(3, false)),
		"4 rows":  fingerprint(st, env, cfg, stats(4, false)),
		"indexed": fingerprint(st, env, cfg, stats(3, true)),
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
	if fingerprint(st, env, wide, stats(3, true)) != fps["indexed"] {
		t.Fatal("an execution-only knob changed the fingerprint")
	}
}
