// Package metrics is the process-wide metric registry: a metric is declared
// once, as a package-level variable beside the code that moves it, with its
// JSON path, its Prometheus family name and its help text. Every consumer —
// tranced's /metrics in both formats, trance.Counters — walks Gather, so
// adding a metric is that one declaration (docs/OBSERVABILITY.md). What a run,
// a compilation or a request measures (dataflow.Metrics, plan.Analysis, trace)
// has that lifetime and stays with its owner.
package metrics

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Desc names one metric: Path is its dotted place in the JSON document
// ("group.key"), Name its Prometheus family, Help the HELP line.
type Desc struct{ Path, Name, Help string }

// Counter is a declared, monotonically increasing count. Add is one atomic
// add: safe on a per-request path.
type Counter struct {
	Desc
	n atomic.Int64
}

// Add adds d to the counter.
func (c *Counter) Add(d int64) { c.n.Add(d) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.n.Load() }

// Reset zeroes the counter, for state that is itself reset (ResetPlanCache).
func (c *Counter) Reset() { c.n.Store(0) }

// Vec is a counter per value of one label. Add takes a lock and a map lookup:
// for cold paths only.
type Vec struct {
	Desc
	mu sync.Mutex
	m  map[string]int64
}

// Add adds d to the count of one label value.
func (v *Vec) Add(value string, d int64) {
	v.mu.Lock()
	v.m[value] += d
	v.mu.Unlock()
}

// Load returns a copy of the per-value counts (empty, never nil).
func (v *Vec) Load() map[string]int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return maps.Clone(v.m)
}

// Sample is one declared metric as Gather reports it: Value for a counter or
// gauge; for a Vec, Label and Values (label value → count, never nil).
type Sample struct {
	Desc
	Gauge  bool
	Value  int64
	Label  string
	Values map[string]int64
}

var registry = struct {
	sync.Mutex
	used  map[string]bool // paths and family names taken
	reads []func() Sample
}{used: map[string]bool{}}

// declare registers a metric under d. A path or family name declared twice is
// a bug in the declaring package and panics at its initialization: a
// duplicate family would make the whole scrape unparseable.
func declare(d Desc, read func() Sample) {
	registry.Lock()
	defer registry.Unlock()
	if registry.used[d.Path] || registry.used[d.Name] {
		panic(fmt.Sprintf("metrics: %s (%s) declared twice", d.Path, d.Name))
	}
	registry.used[d.Path], registry.used[d.Name] = true, true
	registry.reads = append(registry.reads, read)
}

// NewCounter declares a counter.
func NewCounter(path, name, help string) *Counter {
	c := &Counter{Desc: Desc{path, name, help}}
	declare(c.Desc, func() Sample { return Sample{Desc: c.Desc, Value: c.Load()} })
	return c
}

// NewVec declares a counter per value of label.
func NewVec(path, name, help, label string) *Vec {
	v := &Vec{Desc: Desc{path, name, help}, m: map[string]int64{}}
	declare(v.Desc, func() Sample { return Sample{Desc: v.Desc, Label: label, Values: v.Load()} })
	return v
}

// NewGauge declares a value read when gathered.
func NewGauge(path, name, help string, read func() int64) {
	d := Desc{path, name, help}
	declare(d, func() Sample { return Sample{Desc: d, Gauge: true, Value: read()} })
}

// Gather reads every declared metric, ordered by family name.
func Gather() []Sample {
	registry.Lock()
	reads := slices.Clone(registry.reads)
	registry.Unlock()
	out := make([]Sample, len(reads))
	for i, read := range reads {
		out[i] = read()
	}
	slices.SortFunc(out, func(a, b Sample) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// Values flattens Gather into one map keyed by JSON path; a Vec contributes
// "path.<label value>" per value it has counted.
func Values() map[string]int64 {
	out := map[string]int64{}
	for _, s := range Gather() {
		if s.Values == nil {
			out[s.Path] = s.Value
		}
		for v, n := range s.Values {
			out[s.Path+"."+v] = n
		}
	}
	return out
}
