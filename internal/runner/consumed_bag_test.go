// Regression tests for a silent-wrong-answer class the differential oracle
// harness uncovered: an unnest flattens a bag column in place (the unnested
// attribute is tombstoned), so a query that iterates or copies the same bag
// attribute a second time used to read NULL and return empty inner bags.
// Such queries are now refused at compile time with a descriptive error.
package runner_test

import (
	"strings"
	"testing"

	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/runner"
)

func TestConsumedBagReuseIsRefused(t *testing.T) {
	env := nrc.Env{"R": nrc.BagOf(nrc.Tup(
		"a", nrc.IntT,
		"items", nrc.BagOf(nrc.Tup("v", nrc.IntT)),
	))}
	cases := map[string]func() nrc.Expr{
		// Two sibling nested head fields over the same bag: the first child
		// level consumes x.items, the second would read its tombstone.
		"sibling nested fields": func() nrc.Expr {
			return nrc.ForIn("x", nrc.V("R"), nrc.SingOf(nrc.Record(
				"a", nrc.P(nrc.V("x"), "a"),
				"s1", nrc.ForIn("i", nrc.P(nrc.V("x"), "items"), nrc.SingOf(nrc.Record("v", nrc.P(nrc.V("i"), "v")))),
				"s2", nrc.ForIn("j", nrc.P(nrc.V("x"), "items"), nrc.SingOf(nrc.Record("w", nrc.P(nrc.V("j"), "v")))),
			)))
		},
		// Re-iterating a bag consumed by an enclosing for.
		"re-iteration under the consuming for": func() nrc.Expr {
			return nrc.ForIn("x", nrc.V("R"),
				nrc.ForIn("i", nrc.P(nrc.V("x"), "items"),
					nrc.SingOf(nrc.Record(
						"v", nrc.P(nrc.V("i"), "v"),
						"sub", nrc.ForIn("j", nrc.P(nrc.V("x"), "items"), nrc.SingOf(nrc.Record("w", nrc.P(nrc.V("j"), "v")))),
					))))
		},
		// A plain copy field sitting NEXT TO a nested field that iterates
		// the same bag (column-path fields resolve before nested fields
		// compile, so the copy must be re-checked after consumption).
		"copy sibling of a consuming nested field": func() nrc.Expr {
			return nrc.ForIn("x", nrc.V("R"), nrc.SingOf(nrc.Record(
				"a", nrc.P(nrc.V("x"), "a"),
				"b", nrc.P(nrc.V("x"), "items"),
				"n", nrc.ForIn("y", nrc.P(nrc.V("x"), "items"), nrc.SingOf(nrc.Record("v", nrc.P(nrc.V("y"), "v")))),
			)))
		},
		// Same, with the nested field before the copy.
		"consuming nested field then copy sibling": func() nrc.Expr {
			return nrc.ForIn("x", nrc.V("R"), nrc.SingOf(nrc.Record(
				"n", nrc.ForIn("y", nrc.P(nrc.V("x"), "items"), nrc.SingOf(nrc.Record("v", nrc.P(nrc.V("y"), "v")))),
				"b", nrc.P(nrc.V("x"), "items"),
			)))
		},
		// Copying the consumed bag into the head.
		"head copy of the consumed bag": func() nrc.Expr {
			return nrc.ForIn("x", nrc.V("R"),
				nrc.ForIn("i", nrc.P(nrc.V("x"), "items"),
					nrc.SingOf(nrc.Record(
						"v", nrc.P(nrc.V("i"), "v"),
						"sub", nrc.P(nrc.V("x"), "items"),
					))))
		},
	}
	for name, mk := range cases {
		for _, pushdown := range []bool{true, false} {
			cfg := runner.DefaultConfig()
			cfg.NoPredicatePushdown = !pushdown
			_, err := runner.CompileStep(mk(), env, runner.Standard, cfg, "Q")
			if err == nil {
				t.Fatalf("%s (pushdown=%t): must be refused at compile time — executing it would silently return empty inner bags", name, pushdown)
			}
			if !strings.Contains(err.Error(), "already flattened") {
				t.Fatalf("%s (pushdown=%t): want the consumed-bag diagnostic, got: %v", name, pushdown, err)
			}
		}
	}
}

// The guard must survive coordinate remapping: when the FIRST nested head
// field itself contains a nested field, the child frame runs its own column
// remap, and the consumed mark for the shared bag must translate back into
// the parent's coordinates — otherwise the sibling compiles against the
// tombstone and silently returns empty bags (found by code review of the
// original fix).
func TestConsumedBagGuardSurvivesDeepNesting(t *testing.T) {
	env := nrc.Env{"R": nrc.BagOf(nrc.Tup(
		"a", nrc.IntT,
		"items", nrc.BagOf(nrc.Tup(
			"v", nrc.IntT,
			"tags", nrc.BagOf(nrc.Tup("t", nrc.IntT)),
		)),
	))}
	q := nrc.ForIn("x", nrc.V("R"), nrc.SingOf(nrc.Record(
		"a", nrc.P(nrc.V("x"), "a"),
		"s1", nrc.ForIn("i", nrc.P(nrc.V("x"), "items"), nrc.SingOf(nrc.Record(
			"v", nrc.P(nrc.V("i"), "v"),
			"ss", nrc.ForIn("tg", nrc.P(nrc.V("i"), "tags"), nrc.SingOf(nrc.Record("t", nrc.P(nrc.V("tg"), "t")))),
		))),
		"s2", nrc.ForIn("j", nrc.P(nrc.V("x"), "items"), nrc.SingOf(nrc.Record("w", nrc.P(nrc.V("j"), "v")))),
	)))
	_, err := runner.CompileStep(q, env, runner.Standard, runner.DefaultConfig(), "Q")
	if err == nil {
		t.Fatal("deep-nested sibling reuse of x.items must be refused at compile time")
	}
	if !strings.Contains(err.Error(), "already flattened") {
		t.Fatalf("want the consumed-bag diagnostic, got: %v", err)
	}
}

// Distinct bags — even of identical shape — may each be iterated once; only
// genuine reuse is refused.
func TestDistinctBagsStillCompile(t *testing.T) {
	env := nrc.Env{"R": nrc.BagOf(nrc.Tup(
		"xs", nrc.BagOf(nrc.Tup("v", nrc.IntT)),
		"ys", nrc.BagOf(nrc.Tup("v", nrc.IntT)),
	))}
	q := nrc.ForIn("r", nrc.V("R"), nrc.SingOf(nrc.Record(
		"s1", nrc.ForIn("i", nrc.P(nrc.V("r"), "xs"), nrc.SingOf(nrc.Record("v", nrc.P(nrc.V("i"), "v")))),
		"s2", nrc.ForIn("j", nrc.P(nrc.V("r"), "ys"), nrc.SingOf(nrc.Record("w", nrc.P(nrc.V("j"), "v")))),
	)))
	if _, err := runner.CompileStep(q, env, runner.Standard, runner.DefaultConfig(), "Q"); err != nil {
		t.Fatalf("distinct sibling bags must compile: %v", err)
	}
}
