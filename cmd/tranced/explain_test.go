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

	// The shredded route shows the program's assignments and, for
	// shred+unshred, the line naming what its nested rows are stitched from.
	out = getJSON(t, ts, "/explain?name=tpch/nested-to-nested&level=1&strategy=shred%2Bunshred", http.StatusOK)
	text = out["explain"].(string)
	if !strings.Contains(text, "=== assignment ") || !strings.Contains(text, "\nstitch: top=Q lineitems=Q__lineitems\n") {
		t.Fatalf("shredded explain lacks assignments or the stitch line:\n%s", text)
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

// TestExplainAnalyzeMeasuresUnshredding: EXPLAIN ANALYZE of an unshredding
// route measures the shredded assignments it ran — each of the level-2
// flat-to-nested shred+unshred program's three lists the rows it produced —
// and names the top bag and dictionaries its nested rows are stitched from.
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
	sections := strings.Split(text, "=== assignment ")[1:]
	for _, sec := range sections {
		name, rest, _ := strings.Cut(sec, " (analyzed) ===\n")
		root, _, _ := strings.Cut(rest, "\n")
		if !strings.Contains(root, "actual_rows=") || strings.Contains(root, "actual_rows=0 ") {
			t.Errorf("assignment %s not measured: %s", name, root)
		}
	}
	if len(sections) != 3 {
		t.Fatalf("analyzed explain lists %d assignments, want 3:\n%s", len(sections), text)
	}
	if !strings.Contains(text, "\nstitch: top=Q orders=Q__orders orders.lineitems=Q__orders_lineitems\n") {
		t.Fatalf("analyzed explain lacks the stitch line:\n%s", text)
	}
}
