// EXPLAIN ANALYZE support: per-operator runtime statistics collected during
// one execution and rendered beside the static plan annotations. An Analysis
// is created per run (plan trees are shared by concurrent executions, so
// stats cannot live on the nodes) and maps each plan node to its NodeStats.
// Narrow operators accumulate rows and wall time from inside their fused
// closures; wide operators record the dataflow stage they ran under, and the
// renderer resolves their wall time from the run's per-stage metrics — so
// analyze wall totals agree with Result.Metrics by construction.
package plan

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/trance-go/trance/internal/nrc"
)

// NodeStats holds the measured runtime behaviour of one plan node for one
// execution. Counter fields are atomic: fused closures update them from
// concurrent partition tasks. Stage is written driver-side before the
// operator runs and read only after the run completes.
type NodeStats struct {
	// RowsIn and RowsOut count rows entering and leaving the operator.
	RowsIn, RowsOut atomic.Int64
	// WallNS accumulates wall time spent inside the operator's own closures
	// (narrow operators). Wide operators leave it zero and report the wall of
	// their dataflow Stage instead.
	WallNS atomic.Int64
	// IndexMatched counts rows gathered through a secondary index;
	// IndexFallbacks counts executions that degraded to the full scan plus
	// the span predicate.
	IndexMatched, IndexFallbacks atomic.Int64
	// Stage names the dataflow stage a wide operator ran under ("join#3");
	// empty for narrow operators.
	Stage string
}

// Wall returns the accumulated closure wall time.
func (ns *NodeStats) Wall() time.Duration { return time.Duration(ns.WallNS.Load()) }

// Analysis collects NodeStats per plan node for one execution. The zero
// pointer is inert: every method is nil-safe, so execution code can thread a
// possibly-nil *Analysis and pay only a nil check when analyze is off.
type Analysis struct {
	mu    sync.Mutex
	nodes map[Op]*NodeStats
}

// NewAnalysis returns an empty per-run stats collector.
func NewAnalysis() *Analysis { return &Analysis{nodes: map[Op]*NodeStats{}} }

// Node returns the stats slot for op, creating it on first use. Returns nil
// when a is nil (analyze off).
func (a *Analysis) Node(op Op) *NodeStats {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	ns, ok := a.nodes[op]
	if !ok {
		ns = &NodeStats{}
		a.nodes[op] = ns
	}
	return ns
}

// Lookup returns op's stats without creating a slot; nil when absent.
func (a *Analysis) Lookup(op Op) *NodeStats {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.nodes[op]
}

// Alias makes synthetic point to the same stats slot as canonical: the
// executor sometimes evaluates a node through a synthetic stand-in (an
// IndexScan's fallback predicate becomes an ad-hoc Select), and its work
// should be charged to the plan node the user sees.
func (a *Analysis) Alias(synthetic, canonical Op) {
	if a == nil {
		return
	}
	ns := a.Node(canonical)
	a.mu.Lock()
	a.nodes[synthetic] = ns
	a.mu.Unlock()
}

// QError is one operator's estimation error: q = max(est/actual, actual/est),
// the standard symmetric cardinality-estimation quality measure (1.0 is a
// perfect estimate). Both sides are clamped to ≥1 so empty results stay
// finite.
type QError struct {
	// Node is the operator's Describe() text.
	Node string
	// Est is the cost model's row estimate, Actual the measured output rows.
	Est, Actual int64
	// Q is the symmetric error factor, ≥ 1.
	Q float64
}

func qerr(est, actual int64) float64 {
	e, a := float64(max64(est, 1)), float64(max64(actual, 1))
	if e > a {
		return e / a
	}
	return a / e
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// QErrors walks the plan and reports the q-error of every cost-annotated
// operator (joins with a Costs annotation, IndexScans) that has measured
// stats. Order is the Explain walk order.
func QErrors(op Op, a *Analysis) []QError {
	var out []QError
	collectQErrors(op, a, &out)
	return out
}

func collectQErrors(op Op, a *Analysis, out *[]QError) {
	ns := a.Lookup(op)
	if ns != nil {
		switch x := op.(type) {
		case *Join:
			if x.Cost != nil {
				actual := ns.RowsOut.Load()
				*out = append(*out, QError{Node: x.Describe(), Est: x.Cost.EstRows, Actual: actual, Q: qerr(x.Cost.EstRows, actual)})
			}
		case *IndexScan:
			actual := ns.RowsOut.Load()
			*out = append(*out, QError{Node: x.Describe(), Est: x.EstRows, Actual: actual, Q: qerr(x.EstRows, actual)})
		}
	}
	for _, ch := range op.Children() {
		collectQErrors(ch, a, out)
	}
}

// ExchangeStat summarizes how a wide operator's shuffle stage metered the
// buffers it moved across the exchange: at their typed wire encoding
// (columnar) versus by value.Size row walks (boxed), and the bytes of each.
// Runners aggregate the engine's per-stage exchange accounting under the
// operator's base stage name before rendering.
type ExchangeStat struct {
	ColumnarBuffers, BoxedBuffers int64
	ColumnarBytes, BoxedBytes     int64
}

// ExplainAnalyzed renders the plan as an indented tree, one operator per line
// with its output columns (the one walk Explain renders through too), and
// each node's measured runtime annotation beside its static one: `[est_rows=N]`
// gains `[actual_rows=M rows_in=… wall=…]`. stageWall resolves wide operators'
// wall time from the run's per-stage metrics (pass the Result.Metrics stage
// walls); nil omits wide-op walls. exchange resolves wide operators' shuffle
// exchange accounting (columnar vs boxed buffers and compact bytes), keyed
// like stageWall by the operator's stage name; nil omits the annotation.
// Nodes the execution never touched (or an execution without analysis)
// render without a runtime annotation.
func ExplainAnalyzed(op Op, a *Analysis, stageWall map[string]time.Duration, exchange map[string]ExchangeStat) string {
	var sb strings.Builder
	explainAnalyzed(&sb, op, a, stageWall, exchange, 0)
	return sb.String()
}

func explainAnalyzed(sb *strings.Builder, op Op, a *Analysis, stageWall map[string]time.Duration, exchange map[string]ExchangeStat, depth int) {
	for i := 0; i < depth; i++ {
		sb.WriteString("  ")
	}
	sb.WriteString(op.Describe())
	sb.WriteString(analyzeAnnotation(op, a, stageWall, exchange))
	sb.WriteString("  → (")
	cols := op.Columns()
	for i, c := range cols {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(c.Name)
		if _, isBag := c.Type.(nrc.BagType); isBag {
			sb.WriteString("ᴮ")
		}
	}
	sb.WriteString(")\n")
	for _, ch := range op.Children() {
		explainAnalyzed(sb, ch, a, stageWall, exchange, depth+1)
	}
}

// analyzeAnnotation formats one node's runtime annotation, "" when the node
// has no measured stats.
func analyzeAnnotation(op Op, a *Analysis, stageWall map[string]time.Duration, exchange map[string]ExchangeStat) string {
	ns := a.Lookup(op)
	if ns == nil {
		return ""
	}
	var sb strings.Builder
	sb.WriteString(" [actual_rows=")
	sb.WriteString(itoa(ns.RowsOut.Load()))
	if in := ns.RowsIn.Load(); in > 0 {
		sb.WriteString(" rows_in=")
		sb.WriteString(itoa(in))
	}
	wall := ns.Wall()
	if ns.Stage != "" && stageWall != nil {
		wall += stageWall[ns.Stage]
	}
	if wall > 0 {
		fmt.Fprintf(&sb, " wall=%s", wall.Round(time.Microsecond))
	}
	if m := ns.IndexMatched.Load(); m > 0 || ns.IndexFallbacks.Load() > 0 {
		if fb := ns.IndexFallbacks.Load(); fb > 0 {
			fmt.Fprintf(&sb, " index_fallbacks=%d", fb)
		} else {
			fmt.Fprintf(&sb, " index_matched=%d", m)
		}
	}
	if ns.Stage != "" && exchange != nil {
		if es, ok := exchange[ns.Stage]; ok && es.ColumnarBuffers+es.BoxedBuffers > 0 {
			mode := "columnar"
			switch {
			case es.ColumnarBuffers == 0:
				mode = "boxed"
			case es.BoxedBuffers > 0:
				mode = "mixed"
			}
			fmt.Fprintf(&sb, " exchange=%s exchange_bytes=%d", mode, es.ColumnarBytes+es.BoxedBytes)
		}
	}
	switch x := op.(type) {
	case *Join:
		if x.Cost != nil {
			fmt.Fprintf(&sb, " q_err=%.2f", qerr(x.Cost.EstRows, ns.RowsOut.Load()))
		}
	case *IndexScan:
		fmt.Fprintf(&sb, " q_err=%.2f", qerr(x.EstRows, ns.RowsOut.Load()))
	}
	sb.WriteString("]")
	return sb.String()
}
