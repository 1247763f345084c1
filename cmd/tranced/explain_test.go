package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// GET /explain renders a served query's plans before and after the
// rule-based optimizer and the optimizer counters land in /metrics.
func TestExplainEndpoint(t *testing.T) {
	ts := httptest.NewServer(smallServer(t))
	defer ts.Close()

	out := getJSON(t, ts, "/explain?name=tpch/nested-to-flat&level=1&strategy=standard", http.StatusOK)
	text, ok := out["explain"].(string)
	if !ok || text == "" {
		t.Fatalf("explain text missing: %v", out)
	}
	if !strings.Contains(text, "strategy: STANDARD") || !strings.Contains(text, "optimizer:") {
		t.Fatalf("explain lacks strategy/optimizer header:\n%s", text)
	}
	if !strings.Contains(text, "Scan") {
		t.Fatalf("explain lacks a plan tree:\n%s", text)
	}

	// The shredded route shows the program's assignments (and, for
	// shred+unshred, the unshred plan).
	out = getJSON(t, ts, "/explain?name=tpch/nested-to-nested&level=1&strategy=shred%2Bunshred", http.StatusOK)
	text = out["explain"].(string)
	if !strings.Contains(text, "assignment") || !strings.Contains(text, "unshred plan") {
		t.Fatalf("shredded explain lacks assignments/unshred sections:\n%s", text)
	}

	// Bad requests are 4xx.
	getJSON(t, ts, "/explain?name=nope", http.StatusBadRequest)
	getJSON(t, ts, "/explain?name=tpch/nested-to-flat&level=9", http.StatusBadRequest)
	getJSON(t, ts, "/explain?name=tpch/nested-to-flat&strategy=warp", http.StatusBadRequest)

	// Optimizer rule-hit counters are served by /metrics. The preloaded
	// queries are equality-only (their filters become join keys), so drive a
	// query with a residual predicate through POST /query first.
	q := "for c in `tpch/customer` union for o in `tpch/orders` union " +
		"if c.c_custkey == o.o_custkey && c.c_acctbal > 1000.0 then { { name := c.c_name, total := o.o_totalprice } }"
	resp, err := http.Post(ts.URL+"/query?strategy=standard", "text/plain", strings.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query: status %d", resp.StatusCode)
	}
	metrics := getJSON(t, ts, "/metrics", http.StatusOK)
	opt, ok := metrics["optimizer"].(map[string]any)
	if !ok {
		t.Fatalf("optimizer counters missing from /metrics: %v", metrics)
	}
	if opt["predicates_pushed"].(float64) < 1 {
		t.Fatalf("the filtered ad-hoc query should have pushed a predicate: %v", opt)
	}
}

// TestExplainAnalyzeMeasuresUnshredding: a reply on an unshredding route never
// runs the unshred plan, but EXPLAIN ANALYZE of the route does — the analyzed
// level-2 flat-to-nested shred+unshred plans list both unshred ⟕ with the rows
// they produced and where they ran.
func TestExplainAnalyzeMeasuresUnshredding(t *testing.T) {
	cfg := defaultServerConfig()
	cfg.Customers = 20
	cfg.MaxLevel = 2
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	out := getJSON(t, ts, "/explain?name=tpch/flat-to-nested&level=2&strategy=shred%2Bunshred&analyze=1", http.StatusOK)
	text := out["explain"].(string)
	_, unshred, ok := strings.Cut(text, "=== unshred plan (analyzed) ===\n")
	if !ok {
		t.Fatalf("no analyzed unshred plan:\n%s", text)
	}
	unshred, _, _ = strings.Cut(unshred, "===")
	joins := 0
	for _, line := range strings.Split(unshred, "\n") {
		if strings.Contains(line, "⟕") {
			joins++
			if !strings.Contains(line, "actual_rows=") || strings.Contains(line, "actual_rows=0 ") {
				t.Errorf("unshred join not measured: %s", line)
			}
		}
	}
	if joins != 2 {
		t.Fatalf("analyzed unshred plan lists %d ⟕, want 2:\n%s", joins, unshred)
	}
}
