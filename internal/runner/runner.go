// Package runner orchestrates the evaluation strategies compared in the
// paper's experiments (Section 6): the standard compilation route, the
// shredded route with and without unshredding, their skew-aware variants, and
// a SparkSQL-style flattening baseline.
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
	// Shred is shredded compilation with domain elimination, leaving the
	// output in shredded (materialized dictionary) form.
	Shred
	// ShredUnshred runs Shred's statements and restores the nested output by
	// stitching it from the shredded output when it is read (Output), where
	// the paper runs a distributed unshred plan.
	ShredUnshred
	// StandardSkew is Standard with skew-aware operators.
	StandardSkew
	// ShredSkew is Shred with skew-aware operators.
	ShredSkew
	// ShredUnshredSkew is ShredUnshred with skew-aware operators.
	ShredUnshredSkew
	// Auto picks a concrete route per query at compile time from dataset
	// statistics (CompileStep's stats): a skew-aware variant when a scanned
	// input's heavy-key fraction reaches AutoSkewFraction, the shredded route
	// (with unshredding, so the output shape matches Standard) when a
	// selective pushed-down predicate lands on a nested input, Standard
	// otherwise. The Compiled artifact records the chosen route in Strategy
	// and the inputs to the decision in AutoReasons. See docs/COSTMODEL.md.
	Auto
)

// String returns the paper's name for the strategy.
func (s Strategy) String() string {
	switch s {
	case Standard:
		return "STANDARD"
	case SparkSQLStyle:
		return "SPARK-SQL"
	case Shred:
		return "SHRED"
	case ShredUnshred:
		return "SHRED+UNSHRED"
	case StandardSkew:
		return "STANDARD-SKEW"
	case ShredSkew:
		return "SHRED-SKEW"
	case ShredUnshredSkew:
		return "SHRED+UNSHRED-SKEW"
	case Auto:
		return "AUTO"
	}
	return "?"
}

// IsShredded reports whether the strategy runs the shredded pipeline.
func (s Strategy) IsShredded() bool {
	switch s {
	case Shred, ShredUnshred, ShredSkew, ShredUnshredSkew:
		return true
	}
	return false
}

// SkewAware reports whether the strategy uses the skew-resilient operators
// of paper Section 5.
func (s Strategy) SkewAware() bool {
	switch s {
	case StandardSkew, ShredSkew, ShredUnshredSkew:
		return true
	}
	return false
}

// Unshreds reports whether the strategy restores nested output from the
// shredded representation (its Result.Output rows are the nested value, like
// Standard's, stitched from the shredded output).
func (s Strategy) Unshreds() bool {
	return s == ShredUnshred || s == ShredUnshredSkew
}

// AllStrategies lists every explicit strategy in presentation order (Auto is
// a meta-strategy resolving to one of these and is deliberately excluded).
func AllStrategies() []Strategy {
	return []Strategy{Standard, SparkSQLStyle, Shred, ShredUnshred, StandardSkew, ShredSkew, ShredUnshredSkew}
}

// CLIName returns the lowercase name CLIs and HTTP APIs use for the
// strategy (ParseStrategy's inverse).
func (s Strategy) CLIName() string {
	switch s {
	case Standard:
		return "standard"
	case SparkSQLStyle:
		return "sparksql"
	case Shred:
		return "shred"
	case ShredUnshred:
		return "shred+unshred"
	case StandardSkew:
		return "standard-skew"
	case ShredSkew:
		return "shred-skew"
	case ShredUnshredSkew:
		return "shred+unshred-skew"
	case Auto:
		return "auto"
	}
	return "?"
}

// ParseStrategy resolves a CLI/HTTP strategy name (including "auto").
func ParseStrategy(name string) (Strategy, bool) {
	for _, s := range append(AllStrategies(), Auto) {
		if s.CLIName() == name {
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
	// Output is the final step's result: nested rows for Standard/SparkSQL
	// and unshredding strategies, the materialized top bag for Shred. An
	// unshredding route stitches its nested rows from the shredded output
	// when they are read (see Output).
	Output *Output
	// Columns is the flat schema of Output, from the same compilation the rows
	// came from (see OutputColumn).
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

// Output is a run's result. On an unshredding route it is the final step's
// shredded output — the top bag plus the dictionaries its labels stand for —
// and every read but Count stitches nested rows from it (stitch.go), as a
// reply does; on every other route it is the dataset Execute left.
type Output struct {
	d *dataflow.Dataset // the output dataset, or the top bag when stitched
	// mat and shredded lay out the shredded output on an unshredding route;
	// mat is nil on every other route.
	mat      *shred.Materialized
	shredded map[string]*dataflow.Dataset
}

// Count returns the number of output rows; on an unshredding route the top
// bag's, so it stitches nothing.
func (o *Output) Count() int64 { return o.d.Count() }

// Collect gathers the output rows: Dataset.Collect, or on an unshredding route
// every row stitched, in CollectSorted's order.
func (o *Output) Collect() []dataflow.Row {
	if o.mat != nil {
		return o.CollectSorted()
	}
	return o.d.Collect()
}

// CollectSorted gathers the output rows in the deterministic value order.
func (o *Output) CollectSorted() []dataflow.Row {
	rows, _ := o.CollectTop(0)
	return rows
}

// CollectTop gathers the first k output rows of the value order (all of them
// when k <= 0) beside the row count (Dataset.CollectTop). On an unshredding
// route it finds the k rows in the top bag first and stitches only those
// (stitchTop).
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
	return len(rows), total, r.prog[len(r.prog)-1].rowEnc.WriteRows(w, rows, lead, sep)
}
