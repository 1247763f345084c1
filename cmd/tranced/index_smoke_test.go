package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// postJSON posts a body and decodes the JSON response, asserting the status.
func postJSON(t *testing.T, ts *httptest.Server, path, body string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
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

// TestIndexServingSmoke drives the index + mutation surface end to end over
// HTTP: upload a selective dataset (auto-indexed at registration), build an
// explicit index, verify a point query plans as an index scan ([index=…] in
// the explain, counters in /metrics), then append and delete rows and verify
// the served results follow the new generations immediately.
func TestIndexServingSmoke(t *testing.T) {
	cfg := defaultServerConfig()
	cfg.Customers = 5
	cfg.MaxLevel = 0
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// 200 rows with a high-NDV id column: enough for the statistics layer to
	// flag id as selective and auto-build its indexes at registration.
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, "{\"id\": %d, \"grp\": %d, \"val\": %g}\n", i, i%5, float64(i)/4)
	}
	up := postJSON(t, ts, "/datasets?name=smoke-idx", sb.String(), http.StatusCreated)
	if up["rows"].(float64) != 200 {
		t.Fatalf("upload: %v", up)
	}

	// The auto-built index on id is listed.
	list := getJSON(t, ts, "/datasets/smoke-idx/indexes", http.StatusOK)
	var idIdx map[string]any
	for _, e := range list["indexes"].([]any) {
		if m := e.(map[string]any); m["column"] == "id" {
			idIdx = m
		}
	}
	if idIdx == nil || idIdx["auto"] != true || idIdx["keys"].(float64) != 200 {
		t.Fatalf("auto index on id missing or wrong: %v", list)
	}

	// An explicit build on a low-NDV column the auto policy skipped.
	created := postJSON(t, ts, "/datasets/smoke-idx/indexes?column=grp&kind=hash", "", http.StatusCreated)
	if created["kind"] != "hash" || created["auto"] != false || created["keys"].(float64) != 5 {
		t.Fatalf("create index: %v", created)
	}
	// Unknown dataset and unknown column are client errors, not crashes.
	postJSON(t, ts, "/datasets/nope/indexes?column=id", "", http.StatusNotFound)
	postJSON(t, ts, "/datasets/smoke-idx/indexes?column=zzz", "", http.StatusBadRequest)

	// A point query on the indexed column plans as an index scan.
	query := "for r in `datasets/smoke-idx` union if r.id == 7 then { { id := r.id, grp := r.grp } }"
	exp := postJSON(t, ts, "/explain", query, http.StatusOK)
	if text := exp["explain"].(string); !strings.Contains(text, "[index=") || !strings.Contains(text, "col=id") {
		t.Fatalf("explain lacks index scan:\n%s", text)
	}
	out := postJSON(t, ts, "/query", query, http.StatusOK)
	if out["rows"].(float64) != 1 {
		t.Fatalf("point query: %v", out)
	}

	// The scan shows up in /metrics' index block.
	metrics := getJSON(t, ts, "/metrics", http.StatusOK)
	idx := metrics["index"].(map[string]any)
	if idx["built"].(float64) < 2 || idx["planned_scans"].(float64) < 1 ||
		idx["scans"].(float64) < 1 || idx["rows_matched"].(float64) < 1 {
		t.Fatalf("index metrics: %v", idx)
	}

	// Append two rows (one sharing id 7): the next request over the same
	// prepared text serves the new generation — no restart, no re-prepare.
	app := postJSON(t, ts, "/datasets/smoke-idx/append",
		"{\"id\": 7, \"grp\": 1, \"val\": 9.5}\n{\"id\": 500, \"grp\": 0, \"val\": 1.0}",
		http.StatusOK)
	if app["appended"].(float64) != 2 || app["rows"].(float64) != 202 {
		t.Fatalf("append: %v", app)
	}
	if out := postJSON(t, ts, "/query", query, http.StatusOK); out["rows"].(float64) != 2 {
		t.Fatalf("append not visible through prepared query: %v", out)
	}
	fresh := "for r in `datasets/smoke-idx` union if r.id == 500 then { { id := r.id } }"
	if out := postJSON(t, ts, "/query", fresh, http.StatusOK); out["rows"].(float64) != 1 {
		t.Fatalf("appended row not served: %v", out)
	}
	metrics = getJSON(t, ts, "/metrics", http.StatusOK)
	if m := metrics["index"].(map[string]any); m["maintained"].(float64) < 1 {
		t.Fatalf("append did not maintain indexes incrementally: %v", m)
	}

	// Delete by key: both id=7 rows go, and the served results follow.
	del := postJSON(t, ts, "/datasets/smoke-idx/delete?column=id&value=7", "", http.StatusOK)
	if del["removed"].(float64) != 2 || del["rows"].(float64) != 200 {
		t.Fatalf("delete: %v", del)
	}
	if out := postJSON(t, ts, "/query", query, http.StatusOK); out["rows"].(float64) != 0 {
		t.Fatalf("deleted rows still served: %v", out)
	}
	metrics = getJSON(t, ts, "/metrics", http.StatusOK)
	if m := metrics["index"].(map[string]any); m["rebuilt"].(float64) < 1 {
		t.Fatalf("delete did not rebuild indexes: %v", m)
	}
}

// TestDatasetChunksObservable: /datasets reports how many chunks hold a
// dataset's rows, and /stats says when the heavy-key counts are merged lower
// bounds: an append adds a chunk, and deleting the appended rows drops it.
func TestDatasetChunksObservable(t *testing.T) {
	cfg := defaultServerConfig()
	cfg.Customers = 5
	cfg.MaxLevel = 0
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	rows := func(lo, hi, tag int) string {
		var sb strings.Builder
		for i := lo; i < hi; i++ {
			fmt.Fprintf(&sb, "{\"id\": %d, \"tag\": %d}\n", i, tag)
		}
		return sb.String()
	}
	check := func(step string, chunks float64, heavy string) {
		t.Helper()
		var got map[string]any
		for _, d := range getJSON(t, ts, "/datasets", http.StatusOK)["datasets"].([]any) {
			if m := d.(map[string]any); m["name"] == "datasets/chunky" {
				got = m
			}
		}
		if got == nil || got["chunks"] != chunks {
			t.Fatalf("%s: /datasets entry %v, want %v chunks", step, got, chunks)
		}
		st := getJSON(t, ts, "/stats?name=datasets/chunky", http.StatusOK)
		if st["chunks"] != chunks || st["heavy_counts"] != heavy {
			t.Fatalf("%s: /stats chunks=%v heavy_counts=%v, want %v and %s", step, st["chunks"], st["heavy_counts"], chunks, heavy)
		}
	}
	postJSON(t, ts, "/datasets?name=chunky", rows(0, 100, 0), http.StatusCreated)
	check("upload", 1, "exact")
	postJSON(t, ts, "/datasets/chunky/append", rows(100, 110, 1), http.StatusOK)
	check("append", 2, "lower_bound")
	if del := postJSON(t, ts, "/datasets/chunky/delete?column=tag&value=1", "", http.StatusOK); del["removed"].(float64) != 10 {
		t.Fatalf("delete: %v", del)
	}
	check("delete", 1, "exact")
}

// TestMutationRepliesCarryTheirGeneration: the append, delete and
// index-build replies name the generation of one catalog snapshot, the one
// the dataset's info and statistics are stamped with.
func TestMutationRepliesCarryTheirGeneration(t *testing.T) {
	cfg := defaultServerConfig()
	cfg.Customers = 5
	cfg.MaxLevel = 0
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	check := func(step string, reply map[string]any) {
		t.Helper()
		info, _ := srv.catalog.Info("datasets/gen")
		st, _ := srv.catalog.Stats("datasets/gen")
		if gen := reply["generation"]; gen != float64(info.Generation) || info.Generation != st.Generation {
			t.Fatalf("%s: reply generation %v, info %d, statistics %d", step, gen, info.Generation, st.Generation)
		}
	}
	postJSON(t, ts, "/datasets?name=gen", "{\"id\": 1, \"tag\": 0}\n{\"id\": 2, \"tag\": 0}\n", http.StatusCreated)
	check("append", postJSON(t, ts, "/datasets/gen/append", "{\"id\": 3, \"tag\": 1}\n", http.StatusOK))
	check("delete", postJSON(t, ts, "/datasets/gen/delete?column=tag&value=1", "", http.StatusOK))
	check("index", postJSON(t, ts, "/datasets/gen/indexes?column=id&kind=hash", "", http.StatusCreated))
}
