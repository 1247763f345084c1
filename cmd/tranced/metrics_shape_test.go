package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"github.com/trance-go/trance"
)

// metricsJSONShape is the key tree of GET /metrics in document order, one
// "path kind" line per leaf. A label→count object is one leaf; every route
// entry must have the keys listed under routes.*, in that order.
const metricsJSONShape = `auto_strategy {label: number}
datasets number
index.built number
index.fallbacks number
index.maintained number
index.planned_scans number
index.rebuilt number
index.refusal_reasons {label: number}
index.refused number
index.rows_matched number
index.scans number
optimizer.constants_folded number
optimizer.false_selects_cut number
optimizer.join_side_derived number
optimizer.predicates_pushed number
optimizer.pushes_refused number
optimizer.selects_fused number
optimizer.true_selects_dropped number
plan_cache.compiles number
plan_cache.entries number
plan_cache.evictions number
plan_cache.hits number
requests number
routes.*.count number
routes.*.errors number
routes.*.last_elapsed_ms number
routes.*.total_elapsed_ms number
routes.*.shuffle_bytes number
routes.*.stage_wall_ms array
routes.*.reply_bytes number
routes.*.reply_ms number
uptime_s number
workers number`

// metricsPromShape is the set of "family|TYPE|label names|HELP" tuples of
// GET /metrics?format=prometheus, sorted.
const metricsPromShape = `trance_auto_strategy_total|counter|route|Auto strategy resolutions by chosen route.
trance_datasets|gauge||Datasets registered in the catalog.
trance_index_built_total|counter||Secondary indexes built.
trance_index_fallbacks_total|counter||Index scans that fell back to full scans.
trance_index_maintained_total|counter||Incremental index maintenance operations.
trance_index_planned_scans_total|counter||Index scans planned.
trance_index_rebuilt_total|counter||Index rebuilds.
trance_index_refusals_total|counter|reason|Index build refusals by reason.
trance_index_refused_total|counter||Index builds refused.
trance_index_rows_matched_total|counter||Rows matched by index scans.
trance_index_scans_total|counter||Index scans executed.
trance_optimizer_constants_folded_total|counter||Constant subexpressions folded.
trance_optimizer_false_selects_cut_total|counter||Trivially-false selections cut.
trance_optimizer_join_side_derived_total|counter||Join-side filters derived from key equalities.
trance_optimizer_predicates_pushed_total|counter||Optimizer predicate pushdowns.
trance_optimizer_pushes_refused_total|counter||Pushdowns refused at soundness boundaries.
trance_optimizer_selects_fused_total|counter||Adjacent selections fused.
trance_optimizer_true_selects_dropped_total|counter||Trivially-true selections dropped.
trance_plan_cache_compiles_total|counter||Compilations performed.
trance_plan_cache_entries|gauge||Compiled (query, strategy) plans cached.
trance_plan_cache_evictions_total|counter||Plan cache entries evicted by the size bound.
trance_plan_cache_hits_total|counter||Plan cache lookups served without compiling.
trance_requests_total|counter||HTTP requests received.
trance_route_errors_total|counter|route|Failed query requests by route.
trance_route_latency_seconds|histogram|le,route|Query execution latency by route.
trance_route_reply_bytes_total|counter|route|Reply body bytes written by route.
trance_route_reply_seconds_total|counter|route|Seconds spent collecting, encoding and writing reply bodies by route (not part of the latency histogram).
trance_route_requests_total|counter|route|Query requests by route (query/level/strategy).
trance_route_shuffle_bytes_total|counter|route|Engine bytes shuffled by route.
trance_uptime_seconds|gauge||Seconds since the server started.
trance_workers|gauge||Shared worker pool size.`

// jsonShape walks one JSON value in document order and appends a "path kind"
// line per leaf. An object whose path is in vecs is one leaf (its values must
// all be numbers); route names under "routes" are replaced by "*".
func jsonShape(t *testing.T, dec *json.Decoder, path string, vecs map[string]bool, out *[]string) {
	t.Helper()
	tok, err := dec.Token()
	if err != nil {
		t.Fatalf("metrics JSON at %s: %v", path, err)
	}
	switch v := tok.(type) {
	case json.Delim:
		if v == '[' {
			var skip any
			for dec.More() {
				if err := dec.Decode(&skip); err != nil {
					t.Fatal(err)
				}
			}
			*out = append(*out, path+" array")
		} else {
			for dec.More() {
				key, _ := dec.Token()
				child := key.(string)
				switch {
				case vecs[path]:
					var n float64
					if err := dec.Decode(&n); err != nil {
						t.Fatalf("%s[%q] is not a count: %v", path, child, err)
					}
					continue
				case path == "routes":
					child = "*"
				}
				if path != "" {
					child = path + "." + child
				}
				jsonShape(t, dec, child, vecs, out)
			}
			if vecs[path] {
				*out = append(*out, path+" {label: number}")
			}
		}
		if _, err := dec.Token(); err != nil { // the closing delimiter
			t.Fatal(err)
		}
	case float64:
		*out = append(*out, path+" number")
	default:
		*out = append(*out, fmt.Sprintf("%s %T", path, tok))
	}
}

// TestMetricsShape pins what a reader of /metrics sees after a fixed request
// sequence: the JSON key tree with the kind of every leaf, and the Prometheus
// (family, TYPE, label names, HELP) set — so the two renderings cannot drift
// apart or away from their readers unnoticed.
func TestMetricsShape(t *testing.T) {
	cfg := defaultServerConfig()
	cfg.Customers = 5
	cfg.MaxLevel = 1
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	getJSON(t, ts, "/query?name=tpch/nested-to-nested&level=1&strategy=shred&limit=1", http.StatusOK)
	getJSON(t, ts, "/query?name=tpch/nested-to-nested&level=1&strategy=auto&limit=1", http.StatusOK)
	// JSON has no NaN, so the dataset whose index build is refused is
	// registered in process.
	nan := trance.Bag{trance.Tuple{int64(1), 0.5}, trance.Tuple{int64(2), math.NaN()}}
	if err := srv.catalog.Register("datasets/shape-nan", trance.BagOf(trance.Tup("id", trance.IntT, "val", trance.RealT)), nan); err != nil {
		t.Fatal(err)
	}
	postJSON(t, ts, "/datasets/shape-nan/indexes?column=val", "", http.StatusBadRequest)

	body := fetch(t, ts, "/metrics", "")
	var lines []string
	vecs := map[string]bool{"auto_strategy": true, "index.refusal_reasons": true}
	jsonShape(t, json.NewDecoder(strings.NewReader(string(body))), "", vecs, &lines)
	// Every route entry has the same keys in the same order: collapse them.
	var got []string
	seen := map[string]bool{}
	routeLines := 0
	for _, l := range lines {
		if strings.HasPrefix(l, "routes.*.") {
			routeLines++
			if seen[l] {
				continue
			}
			seen[l] = true
		}
		got = append(got, l)
	}
	if strings.Join(got, "\n") != metricsJSONShape {
		t.Errorf("/metrics JSON key tree changed\n got:\n%s\nwant:\n%s", strings.Join(got, "\n"), metricsJSONShape)
	}
	if perRoute := len(seen); routeLines != 2*perRoute {
		t.Errorf("the two served routes render %d leaves, want 2 × %d", routeLines, perRoute)
	}
	var doc struct {
		Auto  map[string]float64 `json:"auto_strategy"`
		Index struct {
			Reasons map[string]float64 `json:"refusal_reasons"`
		} `json:"index"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Auto) == 0 || doc.Index.Reasons["NaN key"] < 1 {
		t.Errorf("label→count objects lack the labels this test produced: auto_strategy=%v refusal_reasons=%v", doc.Auto, doc.Index.Reasons)
	}

	fams := scrapeProm(t, ts, "/metrics?format=prometheus", nil)
	var tuples []string
	for name, fam := range fams {
		labels := map[string]bool{}
		for _, s := range fam.Samples {
			for l := range s.Labels {
				labels[l] = true
			}
		}
		names := make([]string, 0, len(labels))
		for l := range labels {
			names = append(names, l)
		}
		sort.Strings(names)
		tuples = append(tuples, fmt.Sprintf("%s|%s|%s|%s", name, fam.Type, strings.Join(names, ","), fam.Help))
	}
	sort.Strings(tuples)
	if strings.Join(tuples, "\n") != metricsPromShape {
		t.Errorf("Prometheus families changed\n got:\n%s\nwant:\n%s", strings.Join(tuples, "\n"), metricsPromShape)
	}

	// The scrape still opens with the block docs/SERVING.md shows.
	prom := string(fetch(t, ts, "/metrics?format=prometheus", ""))
	head := strings.SplitN(prom, "\n", 7)
	wantHead := []string{
		"# HELP trance_uptime_seconds Seconds since the server started.",
		"# TYPE trance_uptime_seconds gauge",
		"", // the sample: its value moves
		"# HELP trance_requests_total HTTP requests received.",
		"# TYPE trance_requests_total counter",
		"",
	}
	for i, want := range wantHead {
		if want == "" {
			continue
		}
		if i >= len(head) || head[i] != want {
			t.Fatalf("scrape line %d = %q, want %q", i+1, head[i], want)
		}
	}
}
