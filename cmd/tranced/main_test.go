package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"github.com/trance-go/trance"
)

// testServer builds a small server once for the whole test file.
var (
	testOnce sync.Once
	testSrv  *server
	testErr  error
)

func smallServer(t *testing.T) *server {
	t.Helper()
	testOnce.Do(func() {
		cfg := defaultServerConfig()
		cfg.Customers = 20
		cfg.MaxLevel = 1
		testSrv, testErr = newServer(cfg)
	})
	if testErr != nil {
		t.Fatalf("newServer: %v", testErr)
	}
	return testSrv
}

func getJSON(t *testing.T, ts *httptest.Server, path string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d (want %d): %s", path, resp.StatusCode, wantStatus, body)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("GET %s: not JSON: %v\n%s", path, err, body)
	}
	return out
}

func TestQueryEndpoint(t *testing.T) {
	ts := httptest.NewServer(smallServer(t))
	defer ts.Close()

	for _, q := range []string{
		"/query?name=tpch/nested-to-nested&level=1&strategy=standard&limit=3",
		"/query?name=tpch/nested-to-nested&level=1&strategy=shred&limit=3",
		"/query?name=tpch/nested-to-flat&level=1&strategy=shred%2Bunshred",
		"/query?name=tpch/flat-to-nested&level=0",
		"/query?name=biomed/step1&strategy=shred",
	} {
		out := getJSON(t, ts, q, http.StatusOK)
		if out["rows"].(float64) <= 0 {
			t.Fatalf("%s: no rows: %v", q, out)
		}
		results := out["results"].([]any)
		if len(results) == 0 {
			t.Fatalf("%s: empty results", q)
		}
		if _, ok := results[0].(map[string]any); !ok {
			t.Fatalf("%s: result rows should be objects: %v", q, results[0])
		}
	}
}

func TestQueryEndpointRejectsBadRequests(t *testing.T) {
	ts := httptest.NewServer(smallServer(t))
	defer ts.Close()

	for _, q := range []string{
		"/query?name=nope",
		"/query?name=tpch/nested-to-nested&level=9",
		"/query?name=tpch/nested-to-nested&level=x",
		"/query?name=tpch/nested-to-nested&strategy=quantum",
		"/query?name=tpch/nested-to-nested&limit=-2",
	} {
		out := getJSON(t, ts, q, http.StatusBadRequest)
		if out["error"] == nil {
			t.Fatalf("%s: missing error field: %v", q, out)
		}
	}
}

func TestStrategiesEndpoint(t *testing.T) {
	ts := httptest.NewServer(smallServer(t))
	defer ts.Close()

	out := getJSON(t, ts, "/strategies", http.StatusOK)
	list := out["strategies"].([]any)
	if len(list) != 8 { // five routes, the two shredded ones also read nested (shred+unshred), and auto
		t.Fatalf("want 8 strategies, got %d", len(list))
	}
	last := list[len(list)-1].(map[string]any)
	if last["name"] != "auto" {
		t.Fatalf("want auto listed last, got %v", last)
	}
}

// TestUnshredNameSharesTheCompile: shred+unshred names the shred route read
// nested, so requests for both names on one route compile one program — the
// plan cache's compiles rise by one — and reply in their own forms: labels in
// the top bag, bags in the nested rows.
func TestUnshredNameSharesTheCompile(t *testing.T) {
	ts := httptest.NewServer(smallServer(t))
	defer ts.Close()

	text := "for c in `tpch/customer` union if c.c_custkey < 6 then { { cust := c.c_custkey, " +
		"keys := for o in `tpch/orders` union if o.o_custkey == c.c_custkey then { o.o_orderkey } } }"
	before := trance.Counters()["plan_cache.compiles"]
	shred := postText(t, ts, "/query?strategy=shred&limit=0", text, http.StatusOK)
	nested := postText(t, ts, "/query?strategy="+url.QueryEscape("shred+unshred")+"&limit=0", text, http.StatusOK)
	if got := trance.Counters()["plan_cache.compiles"] - before; got != 1 {
		t.Fatalf("shred and shred+unshred on one route compiled %d times, want once", got)
	}
	if shred["rows"] != nested["rows"] || shred["strategy"] != "SHRED" || nested["strategy"] != "SHRED+UNSHRED" {
		t.Fatalf("shred: %v rows as %v; shred+unshred: %v rows as %v", shred["rows"], shred["strategy"], nested["rows"], nested["strategy"])
	}
	top, rows := shred["results"].([]any)[0].(map[string]any), nested["results"].([]any)[0].(map[string]any)
	if _, isBag := rows["keys"].([]any); !isBag {
		t.Fatalf("shred+unshred row %v holds no bag of keys", rows)
	}
	if _, isBag := top["keys"].([]any); isBag {
		t.Fatalf("shred row %v holds a bag where its top bag holds a label", top)
	}
}

// TestAutoQueryEndpoint: strategy=auto resolves to a concrete route, reported
// in the X-Trance-Strategy header and the requested/chosen_strategy fields.
func TestAutoQueryEndpoint(t *testing.T) {
	ts := httptest.NewServer(smallServer(t))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/query?name=tpch/nested-to-nested&level=1&strategy=auto&limit=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	chosen := resp.Header.Get("X-Trance-Strategy")
	if chosen == "" || chosen == "auto" {
		t.Fatalf("X-Trance-Strategy = %q, want a concrete route", chosen)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, body)
	}
	if out["requested"] != "auto" {
		t.Fatalf("requested = %v, want auto", out["requested"])
	}
	if out["chosen_strategy"] != chosen {
		t.Fatalf("chosen_strategy = %v, header %q — must agree", out["chosen_strategy"], chosen)
	}
	if out["rows"].(float64) <= 0 {
		t.Fatalf("no rows: %v", out)
	}

	// A concrete strategy request carries the route header but no
	// requested/chosen_strategy fields.
	out2 := getJSON(t, ts, "/query?name=tpch/nested-to-nested&level=1&strategy=standard&limit=3", http.StatusOK)
	if _, ok := out2["chosen_strategy"]; ok {
		t.Fatalf("chosen_strategy leaked into a non-auto response: %v", out2)
	}
}

// TestDatasetStatsEndpoint: collected statistics of a preloaded dataset.
func TestDatasetStatsEndpoint(t *testing.T) {
	ts := httptest.NewServer(smallServer(t))
	defer ts.Close()

	out := getJSON(t, ts, "/stats?name=tpch/lineitem", http.StatusOK)
	if out["rows"].(float64) <= 0 || out["generation"].(float64) <= 0 {
		t.Fatalf("stats: %v", out)
	}
	cols := out["columns"].([]any)
	if len(cols) == 0 {
		t.Fatalf("no columns: %v", out)
	}
	first := cols[0].(map[string]any)
	for _, field := range []string{"name", "type", "ndv", "heavy_fraction"} {
		if _, ok := first[field]; !ok {
			t.Fatalf("column missing %q: %v", field, first)
		}
	}

	if out := getJSON(t, ts, "/stats?name=nope", http.StatusBadRequest); out["error"] == nil {
		t.Fatalf("unknown dataset: %v", out)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts := httptest.NewServer(smallServer(t))
	defer ts.Close()

	// A shredded route whose top bag takes a Γ (a shred reply computes no
	// dictionary a limited read can demand, so nested-to-nested's runs none).
	getJSON(t, ts, "/query?name=tpch/nested-to-flat&level=1&strategy=shred", http.StatusOK)
	out := getJSON(t, ts, "/metrics", http.StatusOK)
	cache := out["plan_cache"].(map[string]any)
	if cache["compiles"].(float64) < 1 {
		t.Fatalf("plan cache shows no compilations: %v", out)
	}
	routes := out["routes"].(map[string]any)
	route, ok := routes["tpch/nested-to-flat/L1/shred"].(map[string]any)
	if !ok {
		t.Fatalf("route stats missing: %v", routes)
	}
	stages := route["stage_wall_ms"].([]any)
	if len(stages) == 0 {
		t.Fatal("route should report per-stage wall times")
	}
	if route["reply_bytes"].(float64) <= 0 || route["reply_ms"].(float64) <= 0 {
		t.Fatalf("route should report what its replies cost: reply_bytes=%v reply_ms=%v", route["reply_bytes"], route["reply_ms"])
	}
}

// Hammer one query family from many goroutines across strategies: every
// response must be 200 with identical row counts per strategy class.
func TestConcurrentQueries(t *testing.T) {
	ts := httptest.NewServer(smallServer(t))
	defer ts.Close()

	strategies := []string{"standard", "shred", "shred%2Bunshred", "sparksql"}
	const goroutines = 16
	rowCounts := make([]float64, goroutines)
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := fmt.Sprintf("/query?name=tpch/nested-to-nested&level=1&strategy=%s&limit=1", strategies[g%len(strategies)])
			resp, err := http.Get(ts.URL + q)
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("%s: status %d: %s", q, resp.StatusCode, body)
				return
			}
			var out map[string]any
			if err := json.Unmarshal(body, &out); err != nil {
				errs <- fmt.Errorf("%s: %v", q, err)
				return
			}
			rowCounts[g] = out["rows"].(float64)
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Every strategy returns the same top-level cardinality for this query.
	for g := 1; g < goroutines; g++ {
		if rowCounts[g] != rowCounts[0] {
			t.Fatalf("row counts diverge: %v", rowCounts)
		}
	}
}

func TestIndexAndHealth(t *testing.T) {
	ts := httptest.NewServer(smallServer(t))
	defer ts.Close()

	out := getJSON(t, ts, "/", http.StatusOK)
	if out["queries"] == nil {
		t.Fatalf("index should list queries: %v", out)
	}
	h := getJSON(t, ts, "/healthz", http.StatusOK)
	if h["status"] != "ok" {
		t.Fatalf("health: %v", h)
	}
}

// Upload an ad-hoc NDJSON dataset, list it, and query it through every
// strategy: the inferred schema and the rows must agree across routes — the
// dataset was never seen at compile time.
func TestDatasetUploadAndQuery(t *testing.T) {
	ts := httptest.NewServer(smallServer(t))
	defer ts.Close()

	ndjson := `{"cust": "alice", "orders": [{"pid": 1, "qty": 2.5}, {"pid": 2, "qty": 4}]}
{"cust": "bob", "orders": []}
{"cust": "carol", "orders": [{"pid": 3, "qty": 1}]}`
	resp, err := http.Post(ts.URL+"/datasets?name=adhoc-orders", "application/x-ndjson", strings.NewReader(ndjson))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: status %d: %s", resp.StatusCode, body)
	}
	var up map[string]any
	if err := json.Unmarshal(body, &up); err != nil {
		t.Fatal(err)
	}
	if up["rows"].(float64) != 3 {
		t.Fatalf("want 3 rows, got %v", up)
	}
	wantType := "Bag(⟨cust: string, orders: Bag(⟨pid: int, qty: real⟩)⟩)"
	if up["type"] != wantType {
		t.Fatalf("inferred type %q, want %q", up["type"], wantType)
	}

	// The dataset shows up in the listing, marked queryable.
	list := getJSON(t, ts, "/datasets", http.StatusOK)
	found := false
	for _, d := range list["datasets"].([]any) {
		dm := d.(map[string]any)
		if dm["name"] == "datasets/adhoc-orders" {
			found = true
			if dm["source"] != "json" || dm["query"] != "datasets/adhoc-orders" {
				t.Fatalf("listing entry: %v", dm)
			}
		}
	}
	if !found {
		t.Fatalf("uploaded dataset missing from listing: %v", list)
	}

	// Queryable through every strategy, with identical JSON results.
	var blobs []string
	for _, strat := range []string{"standard", "sparksql", "shred%2Bunshred", "standard-skew", "shred%2Bunshred-skew"} {
		out := getJSON(t, ts, "/query?name=datasets/adhoc-orders&strategy="+strat, http.StatusOK)
		if out["rows"].(float64) != 3 {
			t.Fatalf("%s: want 3 rows: %v", strat, out)
		}
		b, _ := json.Marshal(out["results"])
		blobs = append(blobs, string(b))
	}
	for i := 1; i < len(blobs); i++ {
		if blobs[i] != blobs[0] {
			t.Fatalf("strategies disagree on uploaded data:\n%s\nvs\n%s", blobs[0], blobs[i])
		}
	}
	if !strings.Contains(blobs[0], `"cust":"alice"`) || !strings.Contains(blobs[0], `"qty":2.5`) {
		t.Fatalf("unexpected results: %s", blobs[0])
	}
	// The pure-shred route serves the label-bearing top bag.
	out := getJSON(t, ts, "/query?name=datasets/adhoc-orders&strategy=shred", http.StatusOK)
	if out["rows"].(float64) != 3 {
		t.Fatalf("shred: %v", out)
	}
}

func TestDatasetUploadRejectsBadInput(t *testing.T) {
	ts := httptest.NewServer(smallServer(t))
	defer ts.Close()

	post := func(path, body string) (int, string) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	// Missing/invalid name.
	if code, _ := post("/datasets", `{"a":1}`); code != http.StatusBadRequest {
		t.Fatalf("missing name: %d", code)
	}
	if code, _ := post("/datasets?name=bad/slash", `{"a":1}`); code != http.StatusBadRequest {
		t.Fatalf("bad name: %d", code)
	}
	// Malformed JSON.
	if code, _ := post("/datasets?name=broken1", `{"a": `); code != http.StatusBadRequest {
		t.Fatalf("malformed body: %d", code)
	}
	// Irreconcilable schema: descriptive 400, not a crash.
	code, body := post("/datasets?name=broken2", "{\"a\": 1}\n{\"a\": \"x\"}")
	if code != http.StatusBadRequest || !strings.Contains(body, "cannot reconcile") {
		t.Fatalf("irreconcilable: %d %s", code, body)
	}
	// Empty body: 400, and the name is not squatted — a retry with data works.
	if code, body := post("/datasets?name=emptyfirst", ""); code != http.StatusBadRequest || !strings.Contains(body, "no rows") {
		t.Fatalf("empty upload: %d %s", code, body)
	}
	if code, _ := post("/datasets?name=emptyfirst", `{"a":1}`); code != http.StatusCreated {
		t.Fatalf("retry after empty upload should succeed: %d", code)
	}
	// Duplicate name: 409.
	if code, _ := post("/datasets?name=dup1", `{"a":1}`); code != http.StatusCreated {
		t.Fatalf("first upload: %d", code)
	}
	if code, _ := post("/datasets?name=dup1", `{"a":2}`); code != http.StatusConflict {
		t.Fatalf("duplicate upload: %d", code)
	}
	// Failed ingestion must not register a queryable dataset.
	if out := getJSON(t, ts, "/query?name=datasets/broken2", http.StatusBadRequest); out["error"] == nil {
		t.Fatalf("broken dataset should not be queryable: %v", out)
	}
}

// The server bounds uploaded-dataset count/bytes: past the cap, uploads get
// 507 instead of growing memory without limit.
func TestDatasetUploadBounded(t *testing.T) {
	cfg := defaultServerConfig()
	cfg.Customers = 5
	cfg.MaxLevel = 0
	cfg.MaxDatasets = 1
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post := func(name string) int {
		resp, err := http.Post(ts.URL+"/datasets?name="+name, "application/json", strings.NewReader(`{"a":1}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("first"); code != http.StatusCreated {
		t.Fatalf("first upload: %d", code)
	}
	if code := post("second"); code != http.StatusInsufficientStorage {
		t.Fatalf("over-cap upload should be 507, got %d", code)
	}
}

// Appends count against -max-dataset-bytes like uploads do, whether the
// dataset was uploaded or preloaded: once the bytes held beyond the startup
// preloads reach the bound, an append answers 507.
func TestDatasetAppendBounded(t *testing.T) {
	cfg := defaultServerConfig()
	cfg.Customers = 5
	cfg.MaxLevel = 0
	cfg.MaxDatasetBytes = 4 << 10
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post := func(path, body string) int {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/datasets?name=up", `{"a":"x"}`); code != http.StatusCreated {
		t.Fatalf("upload: %d", code)
	}
	row := fmt.Sprintf(`{"c_custkey": 9999, "c_name": "n", "c_address": %q, "c_nationkey": 1,
		"c_phone": "p", "c_acctbal": 1.5, "c_mktsegment": "m", "c_comment": "c"}`, strings.Repeat("x", 1000))
	code := http.StatusOK
	for i := 0; i < 50 && code == http.StatusOK; i++ {
		code = post("/datasets/tpch/customer/append", row)
	}
	if code != http.StatusInsufficientStorage {
		t.Fatalf("appends to a preloaded dataset past the bound: %d, want 507", code)
	}
	if code := post("/datasets/up/append", `{"a":"y"}`); code != http.StatusInsufficientStorage {
		t.Fatalf("append to an uploaded dataset past the bound: %d, want 507", code)
	}
}
