package runner

import (
	"fmt"
	"strings"
	"time"

	"github.com/trance-go/trance/internal/plan"
)

// Explain renders every compiled plan of the program, showing each plan
// before and after the rule-based optimizer pass (predicate pushdown, select
// fusion, constant folding) plus the optimizer's rule-hit counters. Plans the
// optimizer left unchanged are printed once, and the steps of a multi-step
// program each get a "--- step" header. The output backs
// `trance query -explain`, the tranced /explain routes, and the golden
// fixtures under internal/runner/testdata.
func Explain(prog []*Compiled) string {
	var sb strings.Builder
	prog = placeProgram(prog)
	deferred := deferredStmts(prog)
	for i, cq := range prog {
		stepHeader(&sb, prog, i)
		cq.explainHeader(&sb)
		for _, st := range cq.Stmts {
			explainPair(&sb, st, i == len(prog)-1 && deferred[st.Bind] != nil)
		}
	}
	prog[len(prog)-1].explainStitch(&sb)
	return sb.String()
}

func stepHeader(sb *strings.Builder, prog []*Compiled, i int) {
	if len(prog) > 1 {
		fmt.Fprintf(sb, "--- step %d: %s ---\n", i+1, prog[i].Name)
	}
}

// explainHeader writes the strategy/optimizer/index preamble shared
// by Explain and ExplainAnalyze.
func (cq *Compiled) explainHeader(sb *strings.Builder) {
	if cq.Requested == Auto {
		fmt.Fprintf(sb, "strategy: %s (auto-selected)\n", cq.Strategy)
		for _, r := range cq.AutoReasons {
			fmt.Fprintf(sb, "auto: %s\n", r)
		}
	} else {
		fmt.Fprintf(sb, "strategy: %s\n", cq.Strategy)
	}
	if cq.Cfg.NoPredicatePushdown {
		sb.WriteString("optimizer: disabled (NoPredicatePushdown)\n")
	} else {
		fmt.Fprintf(sb, "optimizer: %s\n", cq.Opt.String())
	}
	if cq.Idx.Planned > 0 {
		fmt.Fprintf(sb, "index: %s\n", cq.Idx.String())
	}
}

// ExplainAnalyze renders the plans of the program that produced the result,
// annotated with the per-operator runtime statistics of that execution (a run
// with ExecOptions.Analysis set). Each operator line gains actual rows and
// wall time beside its static [est_rows=…] annotation; joins and index scans
// additionally get a q-error summary block per step comparing the optimizer's
// cardinality estimate against the observed row count. Rendering from the
// result — not from a fresh lookup — means the plans shown are the ones that
// ran, whatever the catalog did since.
func (r *Result) ExplainAnalyze() string {
	var sb strings.Builder
	a := r.Analyze
	// A wide operator's stages are named under its base stage, some with a
	// suffix ("join#1/L", "nest#2/reduce"); node stats carry the base name, so
	// walls and shuffled bytes aggregate under the text before the first '/'.
	wall, shuffled := map[string]time.Duration{}, map[string]int64{}
	for _, st := range r.Metrics.StageWall {
		base, _, _ := strings.Cut(st.Stage, "/")
		wall[base] += st.Wall
		shuffled[base] += st.ShuffleBytes
	}
	for i, cq := range r.prog {
		stepHeader(&sb, r.prog, i)
		cq.explainHeader(&sb)
		if a == nil {
			continue
		}
		var qerrs []plan.QError
		for _, st := range cq.Stmts {
			label := st.Label
			if d := r.deferred[st.Bind]; d != nil && i == len(r.prog)-1 {
				label += " [deferred]"
				if n := d.labels.Load(); n > 0 {
					label += fmt.Sprintf(" demanded=%d→%d", n, d.rows.Load())
				}
			}
			fmt.Fprintf(&sb, "=== %s (analyzed) ===\n%s", label, plan.ExplainAnalyzed(st.Plan, a, wall, shuffled))
			qerrs = append(qerrs, plan.QErrors(st.Plan, a)...)
		}
		if i == len(r.prog)-1 {
			cq.explainStitch(&sb)
		}
		if len(qerrs) > 0 {
			sb.WriteString("=== q-error (estimate vs actual) ===\n")
			for _, q := range qerrs {
				fmt.Fprintf(&sb, "q-error %.2f  est=%d actual=%d  %s\n", q.Q, q.Est, q.Actual, q.Node)
			}
		}
	}
	if a == nil {
		sb.WriteString("analyze: no runtime statistics collected (run with analyze enabled)\n")
		return sb.String()
	}
	fmt.Fprintf(&sb, "execution: wall=%s shuffled=%dB rows_shuffled=%d\n",
		r.Elapsed.Round(time.Microsecond), r.Metrics.ShuffleBytes, r.Metrics.ShuffleRecords)
	return sb.String()
}

// explainStitch writes, on a shredded route, the line naming what a program's
// nested output is stitched from, the final step's: the top bag, then each
// dictionary under the path of the bag it holds.
func (cq *Compiled) explainStitch(sb *strings.Builder) {
	if cq.Mat == nil {
		return
	}
	fmt.Fprintf(sb, "stitch: top=%s", cq.Mat.TopName)
	for _, d := range cq.Mat.Dicts {
		fmt.Fprintf(sb, " %s=%s", strings.Join(d.Path, "."), d.Name)
	}
	sb.WriteString("\n")
}

// explainPair prints one plan section; when the optimizer changed the plan,
// both the before and after trees are shown. The tree shown as the outcome is
// the one that runs; fusion alone does not count as an optimizer change. A
// statement a run defers is marked so on the tree that runs.
func explainPair(sb *strings.Builder, st Stmt, deferred bool) {
	before, after := plan.Explain(st.Raw), plan.Explain(st.Plan)
	label := st.Label
	if deferred {
		label += " [deferred]"
	}
	if before == plan.Explain(st.unfused) {
		fmt.Fprintf(sb, "=== %s (unchanged by optimizer) ===\n%s", label, after)
		return
	}
	fmt.Fprintf(sb, "=== %s (before optimizer) ===\n%s", st.Label, before)
	fmt.Fprintf(sb, "=== %s (after optimizer) ===\n%s", label, after)
}

// deferredStmts names the statements Execute leaves unforced when it runs
// prog without a memory cap, each beside where its rows of a label come from:
// the final step's with a src no earlier step binds — an input's.
func deferredStmts(prog []*Compiled) map[string]*labelSource {
	bound := map[string]bool{}
	for _, cq := range prog[:len(prog)-1] {
		bound[cq.stepName()] = true
		for _, st := range cq.Stmts {
			bound[st.Bind] = true
		}
	}
	out := map[string]*labelSource{}
	for _, st := range prog[len(prog)-1].Stmts {
		if st.src != nil && !bound[st.src.input] {
			out[st.Bind] = st.src
		}
	}
	return out
}
