package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval of the in-process pass: a request (Parent -1)
// or a call into one layer on that request's behalf. Times are nanoseconds
// since the tracer was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the bare pass runs the same code without spans.
type tracer struct {
	t0    time.Time
	spans []span
	reqs  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request opens a root span for one in-process request and returns its id.
func (t *tracer) request(name string) int {
	if t == nil {
		return -1
	}
	t.reqs++
	return t.open(t.reqs, -1, name)
}

func (t *tracer) open(req, parent int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) close(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// begin opens a child span of parent; close it with close.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return -1
	}
	return t.open(t.spans[parent].Req, parent, name)
}

// carve records a child span of known length ending now — for time a callee
// reports itself (the engine's own elapsed time inside SessionQuery.Run).
func (t *tracer) carve(parent int, name string, d time.Duration) {
	if t == nil {
		return
	}
	end := int64(time.Since(t.t0))
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: t.spans[parent].Req, Name: name, Start: end - int64(d), End: end})
}

// selfTimes returns, per request-span name and per span name under it, every
// request's self time in milliseconds (a span's length minus the part its
// children cover). The request's own self time is keyed "". A request that
// never opened a span of some name (a cache hit that skipped the parse, say)
// counts as 0 in that name's list, so every list of one request kind has one
// value per request and a median over it is a median over all of them.
func (t *tracer) selfTimes() map[string]map[string][]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	// One request may hold several spans of one name: sum them per request.
	type key struct {
		req  int
		name string
	}
	sum := map[key]float64{}
	reqName := map[int]string{}
	for _, s := range t.spans {
		name := s.Name
		if s.Parent < 0 {
			name = ""
			reqName[s.Req] = s.Name
		}
		sum[key{s.Req, name}] += float64(s.End-s.Start-child[s.ID]) / 1e6
	}
	out := map[string]map[string][]float64{}
	for k, v := range sum {
		rn := reqName[k.req]
		if out[rn] == nil {
			out[rn] = map[string][]float64{}
		}
		out[rn][k.name] = append(out[rn][k.name], v)
	}
	for _, spans := range out {
		requests := len(spans[""])
		for name, xs := range spans {
			spans[name] = append(xs, make([]float64, requests-len(xs))...)
		}
	}
	return out
}

func (t *tracer) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
