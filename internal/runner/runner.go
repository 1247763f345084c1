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
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/plan"
	"github.com/trance-go/trance/internal/shred"
	"github.com/trance-go/trance/internal/trace"
	"github.com/trance-go/trance/internal/value"
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
	// ShredUnshred additionally restores the nested output.
	ShredUnshred
	// StandardSkew is Standard with skew-aware operators.
	StandardSkew
	// ShredSkew is Shred with skew-aware operators.
	ShredSkew
	// ShredUnshredSkew is ShredUnshred with skew-aware operators.
	ShredUnshredSkew
	// Auto picks a concrete route per query at compile time from dataset
	// statistics (Config.Stats): a skew-aware variant when a scanned input's
	// heavy-key fraction reaches AutoSkewFraction, the shredded route
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

func (s Strategy) skewAware() bool {
	switch s {
	case StandardSkew, ShredSkew, ShredUnshredSkew:
		return true
	}
	return false
}

func (s Strategy) unshreds() bool {
	return s == ShredUnshred || s == ShredUnshredSkew
}

// SkewAware reports whether the strategy uses the skew-resilient operators
// of paper Section 5.
func (s Strategy) SkewAware() bool { return s.skewAware() }

// Unshreds reports whether the strategy restores nested output from the
// shredded representation (its Result.Output rows are the nested value, like
// Standard's).
func (s Strategy) Unshreds() bool { return s.unshreds() }

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
	// Workers bounds the engine's shared goroutine pool (0 = NumCPU). Set it
	// to 1 to execute the same partitioned plan sequentially — the
	// parallel-scaling benchmarks compare exactly these two settings.
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

	// Stats provides per-input table statistics (keyed by the input variable
	// name) to the cost-based planning layer: join method choice and input
	// ordering (plan.Annotate) and the Auto strategy's route selection.
	// Sessions fill it from catalog statistics; nil disables both.
	Stats map[string]plan.TableEstimate
	// NoCostModel is the cost layer's ablation knob: plans get no cost
	// annotations (joins fall back to the runtime size heuristic) and Auto
	// resolves to Standard.
	NoCostModel bool
	// NoIndexScan is the index subsystem's ablation knob: the planner keeps
	// pushed-down predicates as full-scan selections even over indexed
	// columns (see plan.AnnotateOpts, docs/INDEXES.md, and
	// BenchmarkIndexScanAblation). Results are identical either way.
	NoIndexScan bool
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

// Job is a query over named nested inputs.
type Job struct {
	Name  string
	Query nrc.Expr
	Env   nrc.Env
	// Inputs provides nested input values. Standard routes bind them as
	// top-level rows; shredded routes value-shred them before the timer
	// starts (the paper reports runtime after caching all inputs).
	Inputs map[string]value.Bag
}

// Result reports one execution of a program (a query is the one-step
// program) under one strategy.
type Result struct {
	// Strategy is the route the final step ran on — the resolved route when
	// Auto was requested.
	Strategy Strategy
	// Output is the final step's result dataset: nested rows for
	// Standard/SparkSQL and unshredding strategies, the materialized top bag
	// for Shred.
	Output *dataflow.Dataset
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

// Run executes the job under the given strategy: one-shot compile + execute.
// Serving paths that evaluate the same query repeatedly should Compile once
// and Execute per request instead (the root package's Prepare API does).
func Run(job Job, strat Strategy, cfg Config) *Result {
	cq, err := Compile(job.Query, job.Env, strat, cfg)
	if err != nil {
		return Failure(strat, err)
	}
	return ExecuteInputs(context.Background(), []*Compiled{cq}, job.Inputs, NewRunContext(cfg, strat), ExecOptions{})
}

func rowsOf(b value.Bag) []dataflow.Row {
	out := make([]dataflow.Row, len(b))
	for i, e := range b {
		if t, ok := e.(value.Tuple); ok {
			out[i] = dataflow.Row(t)
		} else {
			out[i] = dataflow.Row{e}
		}
	}
	return out
}

func tuplesToRows(ts []value.Tuple) []dataflow.Row {
	out := make([]dataflow.Row, len(ts))
	for i, t := range ts {
		out[i] = dataflow.Row(t)
	}
	return out
}
