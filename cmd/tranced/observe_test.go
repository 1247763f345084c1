package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// scrapeProm fetches the Prometheus exposition and strict-parses it; any
// format violation (declaration order, label escaping, histogram bucket
// monotonicity) fails the test.
func scrapeProm(t *testing.T, ts *httptest.Server, path string, hdr map[string]string) map[string]*promFamily {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("GET %s: content type %q, want the 0.0.4 text exposition", path, ct)
	}
	fams, err := parseProm(string(body))
	if err != nil {
		t.Fatalf("GET %s: exposition does not strict-parse: %v\n%s", path, err, body)
	}
	return fams
}

func TestPrometheusScrape(t *testing.T) {
	ts := httptest.NewServer(smallServer(t))
	defer ts.Close()

	getJSON(t, ts, "/query?name=tpch/nested-to-nested&level=1&strategy=shred", http.StatusOK)
	first := scrapeProm(t, ts, "/metrics?format=prometheus", nil)

	wantTypes := map[string]string{
		"trance_requests_total":            "counter",
		"trance_uptime_seconds":            "gauge",
		"trance_plan_cache_compiles_total": "counter",
		"trance_route_requests_total":      "counter",
		"trance_route_latency_seconds":     "histogram",
		"trance_route_reply_bytes_total":   "counter",
		"trance_route_reply_seconds_total": "counter",
	}
	for name, typ := range wantTypes {
		fam := first[name]
		if fam == nil {
			t.Fatalf("family %s missing from scrape", name)
		}
		if fam.Type != typ {
			t.Fatalf("family %s has type %s, want %s", name, fam.Type, typ)
		}
	}
	route := "tpch/nested-to-nested/L1/shred"
	found := false
	for _, s := range first["trance_route_requests_total"].Samples {
		if s.Labels["route"] == route {
			found = true
			if s.Value < 1 {
				t.Fatalf("route %s counted %g requests", route, s.Value)
			}
		}
	}
	if !found {
		t.Fatalf("route label %q missing: %+v", route, first["trance_route_requests_total"].Samples)
	}
	// What the request cost after the engine returned is on the scrape too.
	for _, name := range []string{"trance_route_reply_bytes_total", "trance_route_reply_seconds_total"} {
		found = false
		for _, s := range first[name].Samples {
			found = found || s.Labels["route"] == route && s.Value > 0
		}
		if !found {
			t.Fatalf("%s has no positive sample for route %q: %+v", name, route, first[name].Samples)
		}
	}

	// Counters must be monotonic across scrapes: run another query, scrape
	// again (this time via Accept negotiation), and compare sample by sample.
	getJSON(t, ts, "/query?name=tpch/nested-to-nested&level=1&strategy=shred", http.StatusOK)
	second := scrapeProm(t, ts, "/metrics", map[string]string{"Accept": "text/plain"})
	for name, fam := range first {
		if fam.Type != "counter" && fam.Type != "histogram" {
			continue
		}
		after := second[name]
		if after == nil {
			t.Fatalf("family %s disappeared between scrapes", name)
		}
		prev := map[string]float64{}
		for _, s := range fam.Samples {
			prev[s.Key()] = s.Value
		}
		for _, s := range after.Samples {
			if before, ok := prev[s.Key()]; ok && s.Value < before {
				t.Fatalf("%s went backwards: %g -> %g", s.Key(), before, s.Value)
			}
		}
	}
	if reqs := second["trance_route_requests_total"]; reqs != nil {
		for _, s := range reqs.Samples {
			if s.Labels["route"] != route {
				continue
			}
			var firstVal float64
			for _, f := range first["trance_route_requests_total"].Samples {
				if f.Key() == s.Key() {
					firstVal = f.Value
				}
			}
			if s.Value <= firstVal {
				t.Fatalf("route counter did not advance: %g -> %g", firstVal, s.Value)
			}
		}
	}
}

func TestMetricsRejectsUnknownFormat(t *testing.T) {
	ts := httptest.NewServer(smallServer(t))
	defer ts.Close()
	out := getJSON(t, ts, "/metrics?format=xml", http.StatusBadRequest)
	if out["error"] == nil {
		t.Fatalf("unknown format should report an error: %v", out)
	}
}

func TestTraceIDRoundTrip(t *testing.T) {
	ts := httptest.NewServer(smallServer(t))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/query?name=tpch/nested-to-nested&level=1&strategy=standard&limit=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Trance-Trace-Id")
	if id == "" {
		t.Fatal("query response carries no X-Trance-Trace-Id header")
	}

	out := getJSON(t, ts, "/trace/"+id, http.StatusOK)
	if out["id"] != id {
		t.Fatalf("trace id mismatch: %v vs %s", out["id"], id)
	}
	root, ok := out["root"].(map[string]any)
	if !ok {
		t.Fatalf("trace has no root span: %v", out)
	}
	names := spanNames(root)
	for _, want := range []string{"resolve", "execute", "collect", "encode"} {
		if !names[want] {
			t.Fatalf("span %q missing from trace tree %v", want, names)
		}
	}

	if bad := getJSON(t, ts, "/trace/ffffffffffffffff", http.StatusNotFound); bad["error"] == nil {
		t.Fatalf("unknown trace should 404 with an error: %v", bad)
	}
}

func spanNames(v map[string]any) map[string]bool {
	out := map[string]bool{v["name"].(string): true}
	children, _ := v["children"].([]any)
	for _, c := range children {
		for n := range spanNames(c.(map[string]any)) {
			out[n] = true
		}
	}
	return out
}

// TestScrapeWhileServing hammers both metrics renderings concurrently with
// query traffic. Under -race this is the guard for the snapshot-under-lock,
// marshal-outside-lock structure of handleMetrics: encoding must never read
// routeStats the recording path is mutating.
func TestScrapeWhileServing(t *testing.T) {
	ts := httptest.NewServer(smallServer(t))
	defer ts.Close()

	const rounds = 8
	var wg sync.WaitGroup
	errs := make(chan error, 3*rounds)
	get := func(path string) error {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, body)
		}
		return nil
	}
	for i := 0; i < rounds; i++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			errs <- get("/query?name=tpch/nested-to-nested&level=1&strategy=shred&limit=1")
		}()
		go func() {
			defer wg.Done()
			errs <- get("/metrics")
		}()
		go func() {
			defer wg.Done()
			errs <- get("/metrics?format=prometheus")
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
