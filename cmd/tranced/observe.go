// Observability endpoints and helpers: per-request tracing (X-Trance-Trace-Id,
// GET /trace/{id}, the slow-query log) and the Prometheus text exposition of
// GET /metrics?format=prometheus. See docs/OBSERVABILITY.md.
package main

import (
	"bytes"
	"log"
	"net/http"
	"sort"
	"time"

	"github.com/trance-go/trance"
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

// writeMetricsProm renders the same counters handleMetrics serves as JSON in
// the Prometheus text exposition format (version 0.0.4), hand-rolled via
// internal/promtext: typed counter/gauge families plus one fixed-bucket
// latency histogram per served route.
func (s *server) writeMetricsProm(w http.ResponseWriter) {
	cache := trance.PlanCacheStats()
	opt := trance.OptimizerCounters()
	idx := trance.IndexCounters()

	one := func(name, help, typ string, v float64) promtext.Family {
		return promtext.Family{Name: name, Help: help, Type: typ, Samples: []promtext.Sample{{Value: v}}}
	}
	fams := []promtext.Family{
		one("trance_uptime_seconds", "Seconds since the server started.", "gauge", time.Since(s.started).Seconds()),
		one("trance_requests_total", "HTTP requests received.", "counter", float64(s.requests.Load())),
		one("trance_workers", "Shared worker pool size.", "gauge", float64(s.pool.Workers())),
		one("trance_datasets", "Datasets registered in the catalog.", "gauge", float64(len(s.catalog.Names()))),
		one("trance_plan_cache_entries", "Compiled (query, strategy) plans cached.", "gauge", float64(cache.Entries)),
		one("trance_plan_cache_compiles_total", "Compilations performed.", "counter", float64(cache.Compiles)),
		one("trance_plan_cache_hits_total", "Plan cache lookups served without compiling.", "counter", float64(cache.Hits)),
		one("trance_plan_cache_evictions_total", "Plan cache entries evicted by the size bound.", "counter", float64(cache.Evictions)),
	}

	auto := promtext.Family{Name: "trance_auto_strategy_total", Help: "Auto strategy resolutions by chosen route.", Type: "counter"}
	autoCounts := trance.AutoCounters()
	routesChosen := make([]string, 0, len(autoCounts))
	for route := range autoCounts {
		routesChosen = append(routesChosen, route)
	}
	sort.Strings(routesChosen)
	for _, route := range routesChosen {
		auto.Samples = append(auto.Samples, promtext.Sample{
			Labels: []promtext.Label{{Name: "route", Value: route}},
			Value:  float64(autoCounts[route]),
		})
	}
	if len(auto.Samples) > 0 {
		fams = append(fams, auto)
	}

	fams = append(fams,
		one("trance_optimizer_predicates_pushed_total", "Optimizer predicate pushdowns.", "counter", float64(opt.PredicatesPushed)),
		one("trance_optimizer_join_side_derived_total", "Join-side filters derived from key equalities.", "counter", float64(opt.JoinSideDerived)),
		one("trance_optimizer_selects_fused_total", "Adjacent selections fused.", "counter", float64(opt.SelectsFused)),
		one("trance_optimizer_constants_folded_total", "Constant subexpressions folded.", "counter", float64(opt.ConstantsFolded)),
		one("trance_optimizer_true_selects_dropped_total", "Trivially-true selections dropped.", "counter", float64(opt.TrueSelectsDropped)),
		one("trance_optimizer_false_selects_cut_total", "Trivially-false selections cut.", "counter", float64(opt.FalseSelectsCut)),
		one("trance_optimizer_pushes_refused_total", "Pushdowns refused at soundness boundaries.", "counter", float64(opt.PushesRefused)),
		one("trance_index_built_total", "Secondary indexes built.", "counter", float64(idx.Built)),
		one("trance_index_refused_total", "Index builds refused.", "counter", float64(idx.Refused)),
		one("trance_index_maintained_total", "Incremental index maintenance operations.", "counter", float64(idx.Maintained)),
		one("trance_index_rebuilt_total", "Index rebuilds.", "counter", float64(idx.Rebuilt)),
		one("trance_index_planned_scans_total", "Index scans planned.", "counter", float64(idx.PlannedScans)),
		one("trance_index_scans_total", "Index scans executed.", "counter", float64(idx.Scans)),
		one("trance_index_fallbacks_total", "Index scans that fell back to full scans.", "counter", float64(idx.Fallbacks)),
		one("trance_index_rows_matched_total", "Rows matched by index scans.", "counter", float64(idx.RowsMatched)),
	)

	refusals := promtext.Family{Name: "trance_index_refusals_total", Help: "Index build refusals by reason.", Type: "counter"}
	refusalCounts := trance.IndexRefusalReasons()
	reasons := make([]string, 0, len(refusalCounts))
	for reason := range refusalCounts {
		reasons = append(reasons, reason)
	}
	sort.Strings(reasons)
	for _, reason := range reasons {
		refusals.Samples = append(refusals.Samples, promtext.Sample{
			Labels: []promtext.Label{{Name: "reason", Value: reason}},
			Value:  float64(refusalCounts[reason]),
		})
	}
	if len(refusals.Samples) > 0 {
		fams = append(fams, refusals)
	}

	stats := s.snapshotStats()
	routes := make([]string, 0, len(stats))
	for route := range stats {
		routes = append(routes, route)
	}
	sort.Strings(routes)
	reqs := promtext.Family{Name: "trance_route_requests_total", Help: "Query requests by route (query/level/strategy).", Type: "counter"}
	errs := promtext.Family{Name: "trance_route_errors_total", Help: "Failed query requests by route.", Type: "counter"}
	shuf := promtext.Family{Name: "trance_route_shuffle_bytes_total", Help: "Engine bytes shuffled by route.", Type: "counter"}
	exBufs := promtext.Family{Name: "trance_route_shuffle_exchange_buffers_total", Help: "Shuffle buffers moved across the wide-operator boundary by route and metered representation (columnar = typed wire encoding, boxed = value.Size row walk).", Type: "counter"}
	exBytes := promtext.Family{Name: "trance_route_shuffle_exchange_bytes_total", Help: "Metered shuffle bytes by route and metered representation (columnar = size of the compact typed wire encoding).", Type: "counter"}
	lat := promtext.Family{Name: "trance_route_latency_seconds", Help: "Query execution latency by route.", Type: "histogram"}
	replyBytes := promtext.Family{Name: "trance_route_reply_bytes_total", Help: "Reply body bytes written by route.", Type: "counter"}
	replySecs := promtext.Family{Name: "trance_route_reply_seconds_total", Help: "Seconds spent collecting, encoding and writing reply bodies by route (not part of the latency histogram).", Type: "counter"}
	for _, route := range routes {
		st := stats[route]
		ls := []promtext.Label{{Name: "route", Value: route}}
		columnar := []promtext.Label{{Name: "route", Value: route}, {Name: "representation", Value: "columnar"}}
		boxed := []promtext.Label{{Name: "route", Value: route}, {Name: "representation", Value: "boxed"}}
		reqs.Samples = append(reqs.Samples, promtext.Sample{Labels: ls, Value: float64(st.Count)})
		errs.Samples = append(errs.Samples, promtext.Sample{Labels: ls, Value: float64(st.Errors)})
		shuf.Samples = append(shuf.Samples, promtext.Sample{Labels: ls, Value: float64(st.ShuffleBytes)})
		exBufs.Samples = append(exBufs.Samples,
			promtext.Sample{Labels: columnar, Value: float64(st.ColumnarBuffers)},
			promtext.Sample{Labels: boxed, Value: float64(st.BoxedBuffers)})
		exBytes.Samples = append(exBytes.Samples,
			promtext.Sample{Labels: columnar, Value: float64(st.ColumnarBytes)},
			promtext.Sample{Labels: boxed, Value: float64(st.BoxedBytes)})
		lat.Samples = append(lat.Samples, promtext.HistogramSamples(ls, latencyBuckets, st.Hist[:], st.HistInf, st.HistSum)...)
		replyBytes.Samples = append(replyBytes.Samples, promtext.Sample{Labels: ls, Value: float64(st.ReplyBytes)})
		replySecs.Samples = append(replySecs.Samples, promtext.Sample{Labels: ls, Value: st.ReplyTime.Seconds()})
	}
	if len(reqs.Samples) > 0 {
		fams = append(fams, reqs, errs, shuf, exBufs, exBytes, lat, replyBytes, replySecs)
	}

	var buf bytes.Buffer
	if err := promtext.Write(&buf, fams); err != nil {
		httpError(w, http.StatusInternalServerError, "render metrics: %v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(buf.Bytes())
}
