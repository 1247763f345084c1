package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"github.com/trance-go/trance/internal/metrics"
)

// TestRenderingsAgree: every registered metric reads the same in the JSON body
// and in the Prometheus scrape, taken back to back with no traffic in between
// (a /metrics request itself moves only the server-local request count).
func TestRenderingsAgree(t *testing.T) {
	ts := httptest.NewServer(smallServer(t))
	defer ts.Close()
	getJSON(t, ts, "/query?name=tpch/nested-to-nested&level=1&strategy=auto&limit=1", http.StatusOK)

	doc := getJSON(t, ts, "/metrics", http.StatusOK)
	fams := scrapeProm(t, ts, "/metrics?format=prometheus", nil)
	samples := metrics.Gather()
	if len(samples) < 21 {
		t.Fatalf("only %d metrics registered", len(samples))
	}
	for _, m := range samples {
		var leaf any = doc
		for _, key := range strings.SplitN(m.Path, ".", 2) {
			leaf = leaf.(map[string]any)[key]
		}
		fam := fams[m.Name]
		if m.Values == nil {
			if fam == nil || len(fam.Samples) != 1 || fam.Samples[0].Value != leaf.(float64) {
				t.Errorf("%s: JSON says %v, scrape says %+v", m.Path, leaf, fam)
			}
			continue
		}
		counts := leaf.(map[string]any)
		if fam == nil {
			if len(counts) != 0 {
				t.Errorf("%s: JSON has %v, the scrape has no family %s", m.Path, counts, m.Name)
			}
			continue
		}
		if len(fam.Samples) != len(counts) {
			t.Errorf("%s: JSON has %d label values, the scrape %d", m.Path, len(counts), len(fam.Samples))
		}
		for _, s := range fam.Samples {
			if got := counts[s.Labels[m.Label]]; got != s.Value {
				t.Errorf("%s{%s=%q}: JSON says %v, scrape says %v", m.Path, m.Label, s.Labels[m.Label], got, s.Value)
			}
		}
	}
}

// TestMetricsTableIsComplete: docs/OBSERVABILITY.md lists every registered
// metric by JSON path and by family name, so the table cannot drift.
func TestMetricsTableIsComplete(t *testing.T) {
	raw, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	for _, m := range metrics.Gather() {
		if !strings.Contains(doc, "`"+m.Path+"`") || !strings.Contains(doc, "`"+m.Name+"`") {
			t.Errorf("docs/OBSERVABILITY.md lacks `%s` / `%s`", m.Path, m.Name)
		}
	}
}
