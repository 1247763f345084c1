// Observability endpoints and helpers: per-request tracing (X-Trance-Trace-Id,
// GET /trace/{id}, the slow-query log) and the Prometheus text exposition of
// GET /metrics?format=prometheus. See docs/OBSERVABILITY.md.
package main

import (
	"bytes"
	"log"
	"maps"
	"net/http"
	"slices"
	"time"

	"github.com/trance-go/trance"
	"github.com/trance-go/trance/internal/metrics"
	"github.com/trance-go/trance/internal/promtext"
)

// startTrace opens a request trace, stamps its ID on the response headers
// (before any body byte is written), and returns it with a derived context.
func (s *server) startTrace(w http.ResponseWriter, r *http.Request, name string) (*trance.Trace, *http.Request) {
	t := trance.NewTrace(name)
	w.Header().Set("X-Trance-Trace-Id", t.ID)
	return t, r.WithContext(trance.ContextWithTrace(r.Context(), t))
}

// finishTrace closes the trace, files it in the ring behind GET /trace/{id},
// and logs the full span tree when the request crossed the slow-query
// threshold.
func (s *server) finishTrace(t *trance.Trace) {
	t.Finish()
	s.traces.Put(t)
	if s.cfg.SlowQuery > 0 && t.Dur() >= s.cfg.SlowQuery {
		log.Printf("tranced: slow query (%v >= %v)\n%s", t.Dur().Round(time.Microsecond), s.cfg.SlowQuery, t.Tree())
	}
}

// handleTrace serves one recent request trace from the in-memory ring as a
// span tree with wall times and attributes. Traces are evicted
// oldest-first; a 404 means the ID was never issued or has aged out.
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t := s.traces.Get(id)
	if t == nil {
		httpError(w, http.StatusNotFound, "unknown trace %q (kept: last %d traces)", id, s.traces.Len())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":      t.ID,
		"wall_us": t.Dur().Microseconds(),
		"root":    t.View(),
	})
}

// writeMetricsProm renders what handleMetrics serves as JSON in the
// Prometheus text exposition format (version 0.0.4), hand-rolled via
// internal/promtext: the four server-local families, every registered
// process-wide metric (metrics.Gather; a labelled family with no samples yet
// is left out), and the per-route families with one fixed-bucket latency
// histogram per served route.
func (s *server) writeMetricsProm(w http.ResponseWriter) {
	one := func(name, help, typ string, v float64) promtext.Family {
		return promtext.Family{Name: name, Help: help, Type: typ, Samples: []promtext.Sample{{Value: v}}}
	}
	fams := []promtext.Family{
		one("trance_uptime_seconds", "Seconds since the server started.", "gauge", time.Since(s.started).Seconds()),
		one("trance_requests_total", "HTTP requests received.", "counter", float64(s.requests.Load())),
		one("trance_workers", "Shared worker pool size.", "gauge", float64(s.pool.Workers())),
		one("trance_datasets", "Datasets registered in the catalog.", "gauge", float64(len(s.catalog.Names()))),
	}
	for _, m := range metrics.Gather() {
		fam := promtext.Family{Name: m.Name, Help: m.Help, Type: "counter"}
		if m.Gauge {
			fam.Type = "gauge"
		}
		if m.Values == nil {
			fam.Samples = []promtext.Sample{{Value: float64(m.Value)}}
		}
		for _, v := range slices.Sorted(maps.Keys(m.Values)) {
			fam.Samples = append(fam.Samples, promtext.Sample{
				Labels: []promtext.Label{{Name: m.Label, Value: v}},
				Value:  float64(m.Values[v]),
			})
		}
		if len(fam.Samples) > 0 {
			fams = append(fams, fam)
		}
	}

	stats := s.snapshotStats()
	reqs := promtext.Family{Name: "trance_route_requests_total", Help: "Query requests by route (query/level/strategy).", Type: "counter"}
	errs := promtext.Family{Name: "trance_route_errors_total", Help: "Failed query requests by route.", Type: "counter"}
	shuf := promtext.Family{Name: "trance_route_shuffle_bytes_total", Help: "Engine bytes shuffled by route.", Type: "counter"}
	lat := promtext.Family{Name: "trance_route_latency_seconds", Help: "Query execution latency by route.", Type: "histogram"}
	replyBytes := promtext.Family{Name: "trance_route_reply_bytes_total", Help: "Reply body bytes written by route.", Type: "counter"}
	replySecs := promtext.Family{Name: "trance_route_reply_seconds_total", Help: "Seconds spent collecting, encoding and writing reply bodies by route (not part of the latency histogram).", Type: "counter"}
	for _, route := range slices.Sorted(maps.Keys(stats)) {
		st := stats[route]
		ls := []promtext.Label{{Name: "route", Value: route}}
		reqs.Samples = append(reqs.Samples, promtext.Sample{Labels: ls, Value: float64(st.Count)})
		errs.Samples = append(errs.Samples, promtext.Sample{Labels: ls, Value: float64(st.Errors)})
		shuf.Samples = append(shuf.Samples, promtext.Sample{Labels: ls, Value: float64(st.ShuffleBytes)})
		lat.Samples = append(lat.Samples, promtext.HistogramSamples(ls, latencyBuckets, st.Hist[:], st.HistInf, st.HistSum)...)
		replyBytes.Samples = append(replyBytes.Samples, promtext.Sample{Labels: ls, Value: float64(st.ReplyBytes)})
		replySecs.Samples = append(replySecs.Samples, promtext.Sample{Labels: ls, Value: st.ReplyTime.Seconds()})
	}
	if len(reqs.Samples) > 0 {
		fams = append(fams, reqs, errs, shuf, lat, replyBytes, replySecs)
	}

	var buf bytes.Buffer
	if err := promtext.Write(&buf, fams); err != nil {
		httpError(w, http.StatusInternalServerError, "render metrics: %v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(buf.Bytes())
}
