package index

import (
	"fmt"
	"sort"
	"sync"

	"github.com/trance-go/trance/internal/metrics"
)

// The process-wide index subsystem counters (docs/OBSERVABILITY.md).
var (
	built        = metrics.NewCounter("index.built", "trance_index_built_total", "Secondary indexes built.")
	refused      = metrics.NewCounter("index.refused", "trance_index_refused_total", "Index builds refused.")
	refusals     = metrics.NewVec("index.refusal_reasons", "trance_index_refusals_total", "Index build refusals by reason.", "reason")
	maintained   = metrics.NewCounter("index.maintained", "trance_index_maintained_total", "Incremental index maintenance operations.")
	rebuilt      = metrics.NewCounter("index.rebuilt", "trance_index_rebuilt_total", "Index rebuilds.")
	plannedScans = metrics.NewCounter("index.planned_scans", "trance_index_planned_scans_total", "Index scans planned.")
	scans        = metrics.NewCounter("index.scans", "trance_index_scans_total", "Index scans executed.")
	fallbacks    = metrics.NewCounter("index.fallbacks", "trance_index_fallbacks_total", "Index scans that fell back to full scans.")
	rowsMatched  = metrics.NewCounter("index.rows_matched", "trance_index_rows_matched_total", "Rows matched by index scans.")
)

// refuse counts a build refusal (non-scalar keys, mixed-type columns,
// range-over-bool) under its reason and returns the error.
func refuse(col, reason string) error {
	refused.Add(1)
	refusals.Add(reason, 1)
	return fmt.Errorf("index: cannot index column %s: %s", col, reason)
}

// RecordRebuild counts a delete-triggered full rebuild.
func RecordRebuild() { rebuilt.Add(1) }

// RecordPlanned counts a Select→IndexScan conversion at plan time.
func RecordPlanned() { plannedScans.Add(1) }

// RecordScan counts one IndexScan executed against a bound index, gathering
// matched rows.
func RecordScan(matched int64) {
	scans.Add(1)
	rowsMatched.Add(matched)
}

// RecordFallback counts an IndexScan executed without a usable bound index
// (degraded to a full scan plus the span predicate).
func RecordFallback() { fallbacks.Add(1) }

// Set is a concurrency-safe collection of column indexes for one dataset (or
// one bound input). Column indexes are immutable; the set itself may gain
// columns after creation.
type Set struct {
	mu   sync.RWMutex
	cols map[string]*ColumnIndex
}

// NewSet returns an empty set.
func NewSet() *Set { return &Set{cols: map[string]*ColumnIndex{}} }

// Put installs (or replaces) the index for its column.
func (s *Set) Put(ci *ColumnIndex) {
	s.mu.Lock()
	s.cols[ci.Col] = ci
	s.mu.Unlock()
}

// Column returns the index for the named column, or nil.
func (s *Set) Column(name string) *ColumnIndex {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cols[name]
}

// Names returns the indexed column names, sorted.
func (s *Set) Names() []string {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.cols))
	for n := range s.cols {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of indexed columns.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.cols)
}

// Clone returns a set sharing the (immutable) column indexes, so a catalog
// mutation can derive a successor set without touching snapshots.
func (s *Set) Clone() *Set {
	out := NewSet()
	if s == nil {
		return out
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for n, ci := range s.cols {
		out.cols[n] = ci
	}
	return out
}
