// Package runner orchestrates the evaluation strategies compared in the
// paper's experiments (Section 6): the standard compilation route, the
// shredded route (read shredded or nested), their skew-aware variants, and a
// SparkSQL-style flattening baseline.
package runner

import (
	"context"
	"errors"
	"io"
	"time"

	"github.com/trance-go/trance/internal/dataflow"
	"github.com/trance-go/trance/internal/ingest"
	"github.com/trance-go/trance/internal/plan"
	"github.com/trance-go/trance/internal/shred"
	"github.com/trance-go/trance/internal/trace"
)

// Strategy selects an evaluation route.
type Strategy int

// The strategies of the paper's evaluation.
const (
	// Standard is the standard compilation route (paper Section 3).
	Standard Strategy = iota
	// SparkSQLStyle models the paper's SparkSQL competitor: flattening with
	// operators kept at their source relations (no partitioning-guarantee
	// reuse, no cogroup fusion, no shredding).
	SparkSQLStyle
	// Shred is shredded compilation with domain elimination. A Result reads
	// its shredded output two ways: Output stitches the nested answer (the
	// paper's Shred+Unshred), Top is the top bag (the paper's Shred).
	Shred
	// StandardSkew is Standard with skew-aware operators.
	StandardSkew
	// ShredSkew is Shred with skew-aware operators.
	ShredSkew
	// Auto picks a concrete route per query at compile time from dataset
	// statistics (CompileStep's stats): a skew-aware variant when a scanned
	// input's heavy-key fraction reaches AutoSkewFraction, the shredded route
	// when a selective pushed-down predicate lands on a nested input, Standard
	// otherwise. The Compiled artifact records the chosen route in Strategy
	// and the inputs to the decision in AutoReasons. See docs/COSTMODEL.md.
	Auto
)

// names holds each strategy's paper name (String), CLI/HTTP name (CLIName),
// and the name of its nested read — a shredded route's Shred+Unshred, which
// ParseStrategy accepts too and an Auto resolution is counted under.
var names = [...][3]string{
	Standard:      {"STANDARD", "standard", "standard"},
	SparkSQLStyle: {"SPARK-SQL", "sparksql", "sparksql"},
	Shred:         {"SHRED", "shred", "shred+unshred"},
	StandardSkew:  {"STANDARD-SKEW", "standard-skew", "standard-skew"},
	ShredSkew:     {"SHRED-SKEW", "shred-skew", "shred+unshred-skew"},
	Auto:          {"AUTO", "auto", "auto"},
}

// String returns the paper's name for the strategy.
func (s Strategy) String() string { return s.name(0) }

// CLIName returns the name CLIs and HTTP APIs use for the strategy
// (ParseStrategy's inverse).
func (s Strategy) CLIName() string { return s.name(1) }

func (s Strategy) name(i int) string {
	if s < 0 || int(s) >= len(names) {
		return "?"
	}
	return names[s][i]
}

// IsShredded reports whether the strategy runs the shredded pipeline.
func (s Strategy) IsShredded() bool { return s == Shred || s == ShredSkew }

// SkewAware reports whether the strategy uses the skew-resilient operators
// of paper Section 5.
func (s Strategy) SkewAware() bool { return s == StandardSkew || s == ShredSkew }

// AllStrategies lists every explicit strategy in presentation order (Auto is
// a meta-strategy resolving to one of these and is deliberately excluded).
func AllStrategies() []Strategy {
	return []Strategy{Standard, SparkSQLStyle, Shred, StandardSkew, ShredSkew}
}

// ParseStrategy resolves a CLI/HTTP strategy name (including "auto"), where
// "shred+unshred" and "shred+unshred-skew" name Shred and ShredSkew, read
// nested as Result.Output reads every route.
func ParseStrategy(name string) (Strategy, bool) {
	for s := range Strategy(len(names)) {
		if s.name(1) == name || s.name(2) == name {
			return s, true
		}
	}
	return 0, false
}

// Config sizes the simulated cluster.
type Config struct {
	// Parallelism is the partition count used by shuffles.
	Parallelism int
	// Workers sizes the worker pool a session runs on when it is given none
	// (0 = the process-wide NumCPU pool). Set it to 1 to execute the same
	// partitioned plan sequentially — the parallel-scaling benchmarks compare
	// exactly these two settings.
	Workers           int
	MaxPartitionBytes int64
	BroadcastLimit    int64
	// DomainElimination toggles the Section 4 optimization (on for the
	// paper's Shred strategy; the ablation bench turns it off).
	DomainElimination bool
	// NoColumnPruning disables column pruning (paper Section 3
	// optimizations; used by the ablation bench).
	NoColumnPruning bool
	// NoPredicatePushdown disables the rule-based plan optimizer (predicate
	// pushdown, select fusion, constant folding — see plan.Optimize and
	// docs/OPTIMIZER.md); used by the ablation bench and the differential
	// oracle harness.
	NoPredicatePushdown bool
}

// Auto-selection thresholds (see docs/COSTMODEL.md for the rationale).
const (
	// AutoSkewFraction is the heavy-key row fraction at or above which Auto
	// picks a skew-aware route.
	AutoSkewFraction = 0.15
	// AutoSelectivity is the estimated pushed-predicate selectivity at or
	// below which Auto routes a query over nested inputs through the shredded
	// pipeline.
	AutoSelectivity = 0.25
)

// DefaultConfig returns a laptop-scale stand-in for the paper's cluster.
func DefaultConfig() Config {
	return Config{
		Parallelism:       8,
		MaxPartitionBytes: 0,
		BroadcastLimit:    64 << 10,
		DomainElimination: true,
	}
}

// Result reports one execution of a program (a query is the one-step
// program) under one strategy.
type Result struct {
	// Strategy is the route the final step ran on — the resolved route when
	// Auto was requested.
	Strategy Strategy
	// Output is the final step's result, the query's nested answer on every
	// route: on a shredded route stitched from the shredded output as it is
	// read (see Output). Top reads the shredded top bag instead.
	Output *Output
	// Columns is the flat schema of Output — the query's own field names and
	// types — from the same compilation the rows came from (see
	// OutputColumn).
	Columns []OutputColumn
	// Shredded holds every materialized assignment of the final step for
	// shredded strategies.
	Shredded map[string]*dataflow.Dataset
	// Mat is the final step's materialized program (shredded strategies only).
	Mat     *shred.Materialized
	Metrics dataflow.Snapshot
	// Elapsed is the total of StepElapsed, the per-step runtimes (one entry
	// per step that started; input conversion is outside the timed region).
	Elapsed     time.Duration
	StepElapsed []time.Duration
	// Analyze holds per-operator runtime statistics when the run executed
	// with ExecOptions.Analysis set (EXPLAIN ANALYZE); nil otherwise.
	Analyze *plan.Analysis
	// TraceID identifies the request trace this run was recorded under, when
	// the caller attached one; empty otherwise.
	TraceID string
	// Err is non-nil when the run failed (e.g. simulated memory saturation —
	// the paper's F entries), and FailedStep is then the index of the step it
	// failed in; FailedStep is -1 when every step completed. The whole program
	// typechecks and compiles before any step executes, so a malformed step
	// fails the run with an empty StepElapsed rather than after earlier steps
	// have burned time.
	Err        error
	FailedStep int

	// prog is the compiled program that produced the result (ExplainAnalyze).
	prog []*Compiled
	// enc renders rows of Columns (WriteJSON).
	enc *ingest.RowEncoder
}

// Top is the result read in its shredded form: on a shredded route a view of
// r whose Output, Columns and WriteJSON are the materialized top bag's, labels
// in place of inner bags (the paper's Shred); r itself on every other route.
func (r *Result) Top() *Result {
	if r.Output == nil || r.Output.mat == nil {
		return r
	}
	last := r.prog[len(r.prog)-1]
	top := *r
	top.Output, top.Columns, top.enc = &Output{d: r.Output.d}, last.topCols, last.topEnc
	return &top
}

// Failed reports whether the run crashed.
func (r *Result) Failed() bool { return r.Err != nil }

// Program is the compiled program that produced the result, each step placed
// over where the steps before it left their outputs: the plans that ran.
func (r *Result) Program() []*Compiled { return r.prog }

// Failure reports a run that never reached the executor: a typecheck, compile
// or input-conversion error. FailedStep comes from the StepError when the
// error carries one.
func Failure(strat Strategy, err error) *Result {
	res := &Result{Strategy: strat, Err: err}
	var se *StepError
	if errors.As(err, &se) {
		res.FailedStep = se.Step
	}
	return res
}

// Output is a run's result. On a shredded route it is the final step's
// shredded output — the top bag plus the dictionaries its labels stand for —
// and every read but Count stitches nested rows from it (stitch.go), as a
// reply does; on every other route, and in a Top view, it is the dataset
// Execute left.
type Output struct {
	d *dataflow.Dataset // the output dataset, or the top bag when stitched
	// mat and shredded lay out the shredded output it is stitched from; mat
	// is nil when nothing is stitched.
	mat      *shred.Materialized
	shredded map[string]*dataflow.Dataset
}

// Count returns the number of output rows; when stitched the top bag's, so it
// stitches nothing.
func (o *Output) Count() int64 { return o.d.Count() }

// CollectSorted gathers the output rows in the deterministic value order.
func (o *Output) CollectSorted() []dataflow.Row {
	rows, _ := o.CollectTop(0)
	return rows
}

// CollectTop gathers the first k output rows of the value order (all of them
// when k <= 0) beside the row count (Dataset.CollectTop). When stitched it
// finds the k rows in the top bag first and stitches only those (stitchTop).
func (o *Output) CollectTop(k int) ([]dataflow.Row, int) {
	if o.mat != nil {
		rows, total, _ := stitchTop(o, k)
		return rows, total
	}
	return o.d.CollectTop(k)
}

// JSON renders the output rows as objects typed by Columns, in the engine's
// canonical sorted order — the query half of the catalog's JSON-in → query →
// JSON-out round trip, for callers that want Go values; WriteJSON writes the
// same rows as bytes. A positive limit keeps only the first limit rows; total
// counts them all.
func (r *Result) JSON(limit int) (out []map[string]any, total int) {
	rows, total := r.Output.CollectTop(limit)
	return ingest.EncodeRows(rows, r.Columns), total
}

// WriteJSON streams the output rows to w as compact JSON objects typed by
// Columns — keys sorted, encoding/json's escaping, non-finite reals as null —
// in the engine's canonical sorted order. A positive limit writes only the
// first limit rows, found without sorting the rest; total counts them all.
// Each row is preceded by lead and consecutive rows are joined by sep, so
// ("", "\n") frames NDJSON and ("\n    ", ",") the elements of an indented
// array. When ctx carries a trace the call records collect and encode spans.
func (r *Result) WriteJSON(ctx context.Context, w io.Writer, limit int, lead, sep string) (returned, total int, err error) {
	sp := trace.From(ctx).Span()
	csp := sp.Child("collect")
	rows, total := r.Output.CollectTop(limit)
	csp.End()
	esp := sp.Child("encode")
	defer esp.End()
	return len(rows), total, r.enc.WriteRows(w, rows, lead, sep)
}
