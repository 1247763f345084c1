package plan

import (
	"fmt"

	"github.com/trance-go/trance/internal/index"
)

// IndexScan reads the rows of a named input whose key column falls in Spans,
// resolved through the input's bound secondary index instead of a full scan.
// It is produced by the cost model (Annotate) from a pushed-down Select
// directly above a Scan when the consumed conjuncts restrict an indexed
// column selectively enough; residual conjuncts stay in a σ above the node.
type IndexScan struct {
	Input string
	Cols  []Column
	// Col and ColIdx name the indexed key column.
	Col    string
	ColIdx int
	// Spans is the union of key intervals to gather; an empty list matches no
	// row (contradictory conjuncts). NULL keys never match, mirroring the σ
	// NULL→false semantics of the conjuncts the spans replace.
	Spans []index.Span
	// Fallback is the predicate equivalent of Spans. The executor applies it
	// as a plain filter when no usable index is bound at run time, so an
	// IndexScan plan never changes results — only access paths.
	Fallback Expr
	// EstRows is the cost model's output cardinality estimate.
	EstRows int64
}

func (s *IndexScan) Columns() []Column { return s.Cols }
func (s *IndexScan) Children() []Op    { return nil }
func (s *IndexScan) Describe() string {
	return fmt.Sprintf("IndexScan %s [index col=%s spans=%s est_rows=%s]",
		s.Input, s.Col, index.FormatSpans(s.Spans), itoa(s.EstRows))
}

// IndexStats counts the planner's index decisions for one compilation;
// process-wide totals live in the index package counters.
type IndexStats struct {
	// Planned counts Select→IndexScan conversions.
	Planned int64
}

// Add accumulates another stats record into s.
func (s *IndexStats) Add(o IndexStats) { s.Planned += o.Planned }

func (s *IndexStats) String() string { return fmt.Sprintf("scans=%d", s.Planned) }
