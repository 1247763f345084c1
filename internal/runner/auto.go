package runner

import (
	"fmt"

	"github.com/trance-go/trance/internal/metrics"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/plan"
)

// Choice is the outcome of the Auto strategy's compile-time route selection.
type Choice struct {
	// Strategy is the concrete route chosen (never Auto).
	Strategy Strategy
	// Reasons records the decision inputs, for Explain and /metrics.
	Reasons []string
}

// ChooseStrategy resolves the Auto meta-strategy for one query: it reads op,
// the query's optimized standard plan, and the per-input statistics stats,
// and picks
//
//   - a skew-aware variant when any scanned input has a column whose heavy-key
//     row fraction reaches AutoSkewFraction (paper Section 5: skewed keys
//     saturate single partitions under key-based shuffling);
//   - the shredded route when a pushed-down predicate with estimated
//     selectivity at or below AutoSelectivity lands on a nested input —
//     shredding avoids materializing inner collections the predicate
//     discards;
//   - Standard otherwise, and always when statistics are absent.
//
// Both signals together select ShredSkew. An Auto run is read nested, as
// Standard's is; the decision is deterministic in (op, env, stats).
func ChooseStrategy(op plan.Op, env nrc.Env, stats map[string]plan.TableEstimate) Choice {
	if len(stats) == 0 {
		return Choice{Strategy: Standard, Reasons: []string{"no statistics available; defaulting to standard"}}
	}
	var reasons []string
	skewed, shreddy := false, false
	seenSkew := map[string]bool{}
	seenShred := map[string]bool{}
	walkPlan(op, func(node plan.Op) {
		switch x := node.(type) {
		case *plan.Scan:
			te, ok := stats[x.Input]
			if !ok || seenSkew[x.Input] {
				return
			}
			seenSkew[x.Input] = true
			for _, col := range x.Cols {
				ce := te.Cols[col.Name]
				if ce.HeavyFraction >= AutoSkewFraction {
					skewed = true
					reasons = append(reasons, fmt.Sprintf(
						"input %s: heavy-key fraction %.2f on column %s ≥ threshold %.2f → skew-aware route",
						x.Input, ce.HeavyFraction, col.Name, AutoSkewFraction))
					break
				}
			}
		case *plan.Select:
			scan, ok := scanBelowSelects(x)
			if !ok || seenShred[scan.Input] {
				return
			}
			te, ok := stats[scan.Input]
			if !ok || !nestedInput(env, scan.Input) {
				return
			}
			seenShred[scan.Input] = true
			sel := pushedSelectivity(x, scan, te)
			if sel <= AutoSelectivity {
				shreddy = true
				reasons = append(reasons, fmt.Sprintf(
					"input %s: pushed predicate selectivity %.2f ≤ threshold %.2f on a nested input → shredded route",
					scan.Input, sel, AutoSelectivity))
			}
		}
	})

	ch := Choice{Strategy: Standard}
	switch {
	case skewed && shreddy:
		ch.Strategy = ShredSkew
	case skewed:
		ch.Strategy = StandardSkew
	case shreddy:
		ch.Strategy = Shred
	default:
		reasons = append(reasons, fmt.Sprintf(
			"no input reaches the skew threshold (%.2f) and no selective pushed predicate on a nested input (≤ %.2f) → standard",
			AutoSkewFraction, AutoSelectivity))
	}
	ch.Reasons = reasons
	return ch
}

// walkPlan visits every node of the plan, pre-order.
func walkPlan(op plan.Op, visit func(plan.Op)) {
	visit(op)
	for _, ch := range op.Children() {
		walkPlan(ch, visit)
	}
}

// scanBelowSelects peels a chain of selections and returns the Scan it sits
// on, if any — the shape predicate pushdown produces for scan-level filters.
func scanBelowSelects(s *plan.Select) (*plan.Scan, bool) {
	in := s.In
	for {
		switch x := in.(type) {
		case *plan.Select:
			in = x.In
		case *plan.Scan:
			return x, true
		default:
			return nil, false
		}
	}
}

// pushedSelectivity estimates the combined selectivity of the select chain
// over the scan, using the scan's column statistics.
func pushedSelectivity(s *plan.Select, scan *plan.Scan, te plan.TableEstimate) float64 {
	cols := make([]plan.ColEstimate, len(scan.Cols))
	for i, c := range scan.Cols {
		cols[i] = te.Cols[c.Name]
	}
	sel := 1.0
	var node plan.Op = s
	for {
		sl, ok := node.(*plan.Select)
		if !ok {
			return sel
		}
		if sl.NullifyCols == nil { // outer-preserving selections keep every row
			sel *= plan.Selectivity(sl.Pred, cols)
		}
		node = sl.In
	}
}

// nestedInput reports whether the input's element type contains a bag-typed
// field — the inputs the shredded route represents as dictionaries.
func nestedInput(env nrc.Env, name string) bool {
	bt, ok := env[name].(nrc.BagType)
	if !ok {
		return false
	}
	tt, ok := bt.Elem.(nrc.TupleType)
	if !ok {
		return false
	}
	for _, f := range tt.Fields {
		if _, isBag := f.Type.(nrc.BagType); isBag {
			return true
		}
	}
	return false
}

// autoStrategy counts compile-time Auto resolutions by the chosen route read
// nested (shred+unshred for Shred), once per compilation, not per cache hit.
var autoStrategy = metrics.NewVec("auto_strategy", "trance_auto_strategy_total", "Auto strategy resolutions by chosen route.", "route")
