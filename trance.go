// Package trance is a Go implementation of the compilation framework from
// "Scalable Querying of Nested Data" (Smith, Benedikt, Nikolic, Shaikhha;
// PVLDB 14(3), 2021) — the TraNCE system.
//
// Queries are written in NRC (nested relational calculus with aggregation and
// deduplication) using the builder functions of this package, compiled either
// through the standard route (Fegaras–Maier unnesting to an algebraic plan)
// or the shredded route (symbolic shredding, materialization, domain
// elimination), optionally with skew-resilient operators, and executed on an
// in-process, parallel pipelined dataflow engine: partitions are processed
// goroutine-per-partition on a bounded worker pool, consecutive narrow
// operators are fused into one pass, and the engine meters shuffles,
// per-stage wall time, and the largest exchanged partition (every
// materialized partition under a memory cap) while emulating per-worker
// memory limits.
//
// Quick start — data goes into a Catalog (from Go values or straight from
// JSON with the nested schema inferred), a Session resolves a query's free
// variables against it, and the prepared SessionQuery runs:
//
//	cat := trance.NewCatalog()
//	info, _ := cat.RegisterJSON("R", jsonReader)   // objects→tuples, arrays→bags
//	q := trance.ForIn("x", trance.V("R"),
//	        trance.SingOf(trance.Record("b", trance.AddOf(trance.P(trance.V("x"), "a"), trance.C(1)))))
//	sq, _ := cat.NewSession(trance.SessionOptions{}).PrepareNamed("inc", q)
//	res, _ := sq.Run(ctx, trance.Shred)
//	rows, _, _ := res.JSON(0)       // JSON in, JSON out: the nested answer
//	top, _, _ := res.Top().JSON(0)  // the same run's shredded top bag
//
// Queries can equally be written as text in the paper's comprehension
// syntax (docs/QUERYLANG.md) — Parse/ParseProgram produce the same ASTs,
// Session.PrepareText serves a query or a multi-statement program with caret
// diagnostics for every lex/parse/type error, and Print renders any query
// back in that syntax:
//
//	sq, _ := cat.NewSession(trance.SessionOptions{}).PrepareText("inc",
//	        `for x in R union { { b := x.a + 1 } }`)
//
// A query is a one-step program, and there is one way to compile and run
// either: Catalog → Session → SessionQuery.Run(ctx, strategy, ...RunOption),
// with Analyze() (EXPLAIN ANALYZE) the only option, returning one Result:
// rows, their schema (Result.Columns, Result.JSON, Result.WriteJSON), per-step
// timings, engine metrics, and with Analyze() the measured plans
// (Result.ExplainAnalyze). The catalog converts each dataset generation's rows
// and collects its statistics once, so every plan is costed with statistics.
// Each (step, strategy) — under env-aware fingerprints — compiles exactly
// once into a thread-safe process-wide cache, and the cached plans evaluate
// from any number of goroutines on one shared bounded worker pool, with
// panics converted to errors at the compile and exec boundaries (see
// ExampleCatalog, docs/SERVING.md, and the cmd/tranced HTTP service).
//
// See examples/ for complete programs, README.md for a quickstart,
// docs/ARCHITECTURE.md for the architecture and paper-to-package map, and
// bench_test.go for the reproduction of the paper's evaluation.
package trance

import (
	"context"

	"github.com/trance-go/trance/internal/dataflow"
	"github.com/trance-go/trance/internal/metrics"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/parse"
	"github.com/trance-go/trance/internal/plan"
	"github.com/trance-go/trance/internal/runner"
	"github.com/trance-go/trance/internal/shred"
	"github.com/trance-go/trance/internal/stats"
	"github.com/trance-go/trance/internal/trace"
	"github.com/trance-go/trance/internal/value"
)

// Value model.
type (
	// Value is a runtime nested value (nil is NULL).
	Value = value.Value
	// Tuple is an ordered record value.
	Tuple = value.Tuple
	// Bag is a multiset value.
	Bag = value.Bag
	// Date is a calendar date (yyyymmdd encoding).
	Date = value.Date
	// Label identifies an inner bag in the shredded representation.
	Label = value.Label
)

// MakeDate builds a Date from year, month, day.
func MakeDate(y, m, d int) Date { return value.MakeDate(y, m, d) }

// FormatValue renders a value deterministically.
func FormatValue(v Value) string { return value.Format(v) }

// ValuesEqual reports deep (multiset) equality.
func ValuesEqual(a, b Value) bool { return value.Equal(a, b) }

// Language: types.
type (
	// Type is an NRC type.
	Type = nrc.Type
	// Env maps input names to their types.
	Env = nrc.Env
	// Expr is an NRC expression.
	Expr = nrc.Expr
	// Program is a sequence of assignments, its Stmts the steps of the
	// program (ParseProgram, Session.PreparePipeline).
	Program = nrc.Program
	// PipelineStep is one named step of a program, Name := Expr; later steps
	// may reference earlier ones by name.
	PipelineStep = nrc.Assignment
)

// Scalar type singletons.
var (
	IntT    = nrc.IntT
	RealT   = nrc.RealT
	StringT = nrc.StringT
	BoolT   = nrc.BoolT
	DateT   = nrc.DateT
)

// Type constructors.
var (
	// Tup builds a tuple type from name/Type pairs.
	Tup = nrc.Tup
	// BagOf builds Bag(elem).
	BagOf = nrc.BagOf
)

// Expression builders (see package nrc for documentation).
var (
	C       = nrc.C
	V       = nrc.V
	P       = nrc.P
	Record  = nrc.Record
	SingOf  = nrc.SingOf
	EmptyOf = nrc.EmptyOf
	GetOf   = nrc.GetOf
	ForIn   = nrc.ForIn
	UnionOf = nrc.UnionOf
	LetIn   = nrc.LetIn
	IfThen  = nrc.IfThen
	IfElse  = nrc.IfElse
	EqOf    = nrc.EqOf
	NeOf    = nrc.NeOf
	LtOf    = nrc.LtOf
	LeOf    = nrc.LeOf
	GtOf    = nrc.GtOf
	GeOf    = nrc.GeOf
	AddOf   = nrc.AddOf
	SubOf   = nrc.SubOf
	MulOf   = nrc.MulOf
	DivOf   = nrc.DivOf
	NotOf   = nrc.NotOf
	AndOf   = nrc.AndOf
	OrOf    = nrc.OrOf
	DedupOf = nrc.DedupOf
	// GroupByOf groups a bag by key attributes into a "group" bag attribute.
	GroupByOf = nrc.GroupByOf
	// SumByOf sums value attributes per distinct key.
	SumByOf = nrc.SumByOf
)

// Check type-checks a query against an environment.
func Check(q Expr, env Env) (Type, error) { return nrc.Check(q, env) }

// Print renders a query in the canonical textual surface syntax — the same
// language Parse accepts, so Parse(Print(q)) returns a structurally
// identical query (see docs/QUERYLANG.md for the grammar).
func Print(q Expr) string { return nrc.Print(q) }

// Parse parses a query written in the textual NRC surface syntax (the
// comprehension language of the paper: `for x in R union ...` — see
// docs/QUERYLANG.md for the full grammar). Lex and parse errors are
// position-tracked caret diagnostics and never panic. The returned
// expression is ready for Check or Session.PrepareNamed (Session.PrepareText
// parses and prepares in one step and points type errors back at the text).
func Parse(src string) (Expr, error) {
	r, err := parse.Query(src)
	if err != nil {
		return nil, err
	}
	return r.Expr, nil
}

// ParseProgram parses a multi-statement program: `name := expr;`
// assignments (later statements may reference earlier names) ending in a
// result expression — each assignment is a PipelineStep of Program.Stmts, and
// a final bare expression becomes the step "result". Session.PrepareText is
// the catalog-resolved, compile-once serving path for program text.
func ParseProgram(src string) (*Program, error) {
	r, err := parse.Program(src)
	if err != nil {
		return nil, err
	}
	return r.Program, nil
}

// LocalEval evaluates a checked query with the tuple-at-a-time reference
// evaluator (the oracle used by this repository's tests).
func LocalEval(q Expr, inputs map[string]Bag) Value {
	var s *nrc.Scope
	for name, b := range inputs {
		s = s.Bind(name, b)
	}
	return nrc.Eval(q, s)
}

// Execution strategies (paper Section 6).
type Strategy = runner.Strategy

// Strategy values.
const (
	Standard      = runner.Standard
	SparkSQLStyle = runner.SparkSQLStyle
	Shred         = runner.Shred
	StandardSkew  = runner.StandardSkew
	ShredSkew     = runner.ShredSkew
	// Auto resolves to a concrete route per query at compile time from
	// catalog statistics (see docs/COSTMODEL.md).
	Auto = runner.Auto
)

// AllStrategies lists every explicit strategy in presentation order (Auto,
// being a meta-strategy, is excluded).
func AllStrategies() []Strategy { return runner.AllStrategies() }

// ParseStrategy resolves a CLI/HTTP strategy name (Strategy.CLIName's
// inverse): standard | sparksql | shred | shred+unshred | standard-skew |
// shred-skew | shred+unshred-skew | auto; shred+unshred(-skew) names
// Shred(Skew) read nested, as Result.Output is.
func ParseStrategy(name string) (Strategy, bool) { return runner.ParseStrategy(name) }

// Dataset statistics (see docs/COSTMODEL.md).
type (
	// DatasetStats holds one dataset's collected statistics: row/byte counts
	// and per-scalar-column NDV, min/max, NULL counts, and heavy-key
	// histograms (Catalog.Stats).
	DatasetStats = stats.Table
	// ColumnStats is one column's statistics within a DatasetStats.
	ColumnStats = stats.Column
)

// Execution configuration and results.
type (
	// Config sizes the simulated cluster.
	Config = runner.Config
	// Result reports one run of a query or multi-step program. Result.JSON
	// renders its rows and Result.ExplainAnalyze its measured plans.
	Result = runner.Result
	// Metrics is a snapshot of engine counters, including per-stage wall
	// times (Metrics.StageWall).
	Metrics = dataflow.Snapshot
	// StageTime is the measured wall time of one named engine stage.
	StageTime = dataflow.StageTime
)

// DefaultConfig is a laptop-scale stand-in for the paper's cluster.
func DefaultConfig() Config { return runner.DefaultConfig() }

// Counters returns every process-wide metric — the plan cache, the optimizer's
// rule hits, the index subsystem, Auto's resolutions — keyed by its dotted
// JSON path in tranced's /metrics ("group.key"); a labelled family contributes
// "path.<label value>" per value counted. docs/OBSERVABILITY.md has the table
// of paths. Per-query optimizer and index counts appear in
// PreparedQuery.Explain output.
func Counters() map[string]int64 { return metrics.Values() }

// Observability (see docs/OBSERVABILITY.md).
type (
	// Analysis collects per-operator runtime statistics during a run with
	// Analyze() (Result.Analyze).
	Analysis = plan.Analysis
	// NodeStats are one plan operator's observed runtime statistics.
	NodeStats = plan.NodeStats
	// QError is one operator's cardinality-estimate error (max(est/actual,
	// actual/est), clamped to ≥1).
	QError = plan.QError
	// Trace is one request's span tree (Result.TraceID names it).
	Trace = trace.Trace
	// Span is one timed region of a request trace.
	Span = trace.Span
	// TraceRing is a bounded in-memory buffer of recent traces (what backs
	// tranced GET /trace/{id}).
	TraceRing = trace.Ring
)

// NewTrace starts a request trace with a fresh random ID and an open root
// span. Attach it to a context with ContextWithTrace; every Run on that
// context records resolve/compile/bind/execute child spans.
func NewTrace(name string) *Trace { return trace.New(name) }

// NewTraceRing creates a bounded trace buffer keeping the most recent n
// traces (n <= 0 uses the default capacity).
func NewTraceRing(n int) *TraceRing { return trace.NewRing(n) }

// ContextWithTrace attaches a trace to a context.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context { return trace.With(ctx, t) }

// TraceFromContext returns the trace attached to ctx, or nil.
func TraceFromContext(ctx context.Context) *Trace { return trace.From(ctx) }

// ExplainShredded shreds and materializes a query and renders the resulting
// flat program (paper Example 5/6 style).
func ExplainShredded(q Expr, env Env) (string, error) {
	mat, err := shred.ShredQuery(q, env, queryStep(env), shred.DefaultOptions())
	if err != nil {
		return "", err
	}
	return nrc.PrintProgram(mat.Program), nil
}
