package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func postText(t *testing.T, ts *httptest.Server, path, body string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: read: %v", path, err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d (want %d): %s", path, resp.StatusCode, wantStatus, raw)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("POST %s: not JSON: %v\n%s", path, err, raw)
	}
	return out
}

// TestTextQueryEndpoint runs ad-hoc textual queries against preloaded and
// uploaded datasets through every route shape: plain scan, nested
// subquery, shredded strategies.
func TestTextQueryEndpoint(t *testing.T) {
	ts := httptest.NewServer(smallServer(t))
	defer ts.Close()

	// A query over a preloaded dataset; the namespaced name is backquoted.
	out := postText(t, ts, "/query?limit=3",
		"for c in `tpch/customer` union { { name := c.c_name, bal := c.c_acctbal } }",
		http.StatusOK)
	if out["rows"].(float64) != 20 {
		t.Fatalf("rows: %v", out["rows"])
	}
	results := out["results"].([]any)
	if len(results) != 3 {
		t.Fatalf("returned: %d", len(results))
	}
	if _, ok := results[0].(map[string]any)["name"]; !ok {
		t.Fatalf("row missing name: %v", results[0])
	}

	// The same text again must hit the prepared-text cache (and still work).
	again := postText(t, ts, "/query?limit=3",
		"for c in `tpch/customer` union { { name := c.c_name, bal := c.c_acctbal } }",
		http.StatusOK)
	if again["fingerprint"] != out["fingerprint"] {
		t.Fatalf("fingerprints differ: %v vs %v", again["fingerprint"], out["fingerprint"])
	}

	// A nested query over an uploaded dataset under a shredded strategy.
	ndjson := `{"cust": "alice", "orders": [{"pid": 1, "qty": 12.5}, {"pid": 2, "qty": 3.0}]}
{"cust": "bob", "orders": []}`
	resp, err := http.Post(ts.URL+"/datasets?name=textq", "application/x-ndjson", strings.NewReader(ndjson))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusConflict {
		t.Fatalf("upload: %d", resp.StatusCode)
	}
	q := "for r in `datasets/textq` union { { cust := r.cust, big := for o in r.orders union if o.qty > 10.0 then { o } } }"
	for _, strat := range []string{"standard", "shred%2Bunshred"} {
		out := postText(t, ts, "/query?strategy="+strat, q, http.StatusOK)
		if out["rows"].(float64) != 2 {
			t.Fatalf("%s rows: %v", strat, out["rows"])
		}
		rows := out["results"].([]any)
		r0 := rows[0].(map[string]any)
		if r0["cust"] != "alice" || len(r0["big"].([]any)) != 1 {
			t.Fatalf("%s row0: %v", strat, r0)
		}
		r1 := rows[1].(map[string]any)
		if r1["cust"] != "bob" || len(r1["big"].([]any)) != 0 {
			t.Fatalf("%s row1: %v", strat, r1)
		}
	}

	// Aggregation endpoint-to-endpoint: sumby over a join.
	agg := "sumby[cust; total](for r in `datasets/textq` union for o in r.orders union { { cust := r.cust, total := o.qty } })"
	out = postText(t, ts, "/query", agg, http.StatusOK)
	if out["rows"].(float64) != 1 {
		t.Fatalf("agg rows: %v", out["rows"])
	}
	row := out["results"].([]any)[0].(map[string]any)
	if row["cust"] != "alice" || row["total"].(float64) != 15.5 {
		t.Fatalf("agg row: %v", row)
	}
}

// TestTextQueryErrors asserts every failure mode returns a 4xx with a caret
// diagnostic — parse errors, type errors, unknown datasets — and that
// nothing panics the server.
func TestTextQueryErrors(t *testing.T) {
	ts := httptest.NewServer(smallServer(t))
	defer ts.Close()

	cases := []struct {
		name, body, frag string
	}{
		{"parse", "for c in union { c }", "expected"},
		{"unknown dataset", "for c in Nowhere union { c }", "no dataset"},
		{"type error", "for c in `tpch/customer` union { { x := c.nope } }", "nope"},
		{"chained cmp", "for c in `tpch/customer` union if 1 < 2 < 3 then { c }", "chain"},
		{"empty", "   ", "empty query"},
	}
	for _, c := range cases {
		out := postText(t, ts, "/query", c.body, http.StatusBadRequest)
		msg, _ := out["error"].(string)
		if !strings.Contains(msg, c.frag) {
			t.Errorf("%s: error %q missing %q", c.name, msg, c.frag)
		}
		if c.name != "empty" && c.name != "unknown dataset" && !strings.Contains(msg, "^") {
			t.Errorf("%s: error %q lacks caret", c.name, msg)
		}
	}
	// Unknown-dataset errors do carry a caret too (pointing at the variable).
	out := postText(t, ts, "/query", "for c in Nowhere union { c }", http.StatusBadRequest)
	if msg, _ := out["error"].(string); !strings.Contains(msg, "^") {
		t.Errorf("unknown dataset: error %q lacks caret", msg)
	}

	// Bad strategy/limit and oversized bodies are rejected.
	postText(t, ts, "/query?strategy=warp", "for c in `tpch/customer` union { c }", http.StatusBadRequest)
	postText(t, ts, "/query?limit=-2", "for c in `tpch/customer` union { c }", http.StatusBadRequest)
	postText(t, ts, "/explain?strategy=warp", "for c in `tpch/customer` union { c }", http.StatusBadRequest)
	oversized := strings.Repeat("x", maxTextQueryBytes+1)
	postText(t, ts, "/query", oversized, http.StatusRequestEntityTooLarge)
	postText(t, ts, "/explain", oversized, http.StatusRequestEntityTooLarge)
}
