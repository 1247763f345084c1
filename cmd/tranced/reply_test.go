package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"regexp"
	"strings"
	"testing"

	"github.com/trance-go/trance"
)

// fetch returns the raw body of a 200 reply; a non-empty text is POSTed.
func fetch(t *testing.T, ts *httptest.Server, path, text string) []byte {
	t.Helper()
	_, body := fetchRoute(t, ts, path, text)
	return body
}

// fetchRoute is fetch beside the reply's X-Trance-Strategy header.
func fetchRoute(t *testing.T, ts *httptest.Server, path, text string) (string, []byte) {
	t.Helper()
	var resp *http.Response
	var err error
	if text == "" {
		resp, err = http.Get(ts.URL + path)
	} else {
		resp, err = http.Post(ts.URL+path, "text/plain", strings.NewReader(text))
	}
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d, read error %v: %s", path, resp.StatusCode, err, body)
	}
	return resp.Header.Get("X-Trance-Strategy"), body
}

var updateReplies = flag.Bool("update", false, "rewrite testdata/replies.golden")

// volatileFields are the reply fields that differ from run to run. The
// fingerprint is not one: it digests the query, the types, the knobs and the
// statistics, which the same data gives every start.
var volatileFields = regexp.MustCompile(`"(elapsed_ms|trace_id)": [^,\n]*`)

// reply is the envelope with each row kept as the bytes it arrived in.
type reply struct {
	Rows      int               `json:"rows"`
	Returned  int               `json:"returned"`
	Truncated bool              `json:"truncated"`
	Results   []json.RawMessage `json:"results"`
}

func decodeReply(t *testing.T, body []byte) reply {
	t.Helper()
	var r reply
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("reply is not JSON: %v\n%s", err, body)
	}
	return r
}

// TestNonFiniteRealsReply: a result holding ±Inf or NaN used to answer 200
// with an empty body (the encoder failed after the header was out). The reals
// JSON cannot carry render as null and the reply stays whole.
func TestNonFiniteRealsReply(t *testing.T) {
	ts := httptest.NewServer(smallServer(t))
	defer ts.Close()

	text := "for c in `tpch/customer` union { { name := c.c_name, bal := c.c_acctbal * 1e308 * 1e308 } }"
	r := decodeReply(t, fetch(t, ts, "/query?limit=0", text))
	if r.Rows != 20 || len(r.Results) != 20 {
		t.Fatalf("rows %d, %d results; want 20 of each", r.Rows, len(r.Results))
	}
	for _, row := range r.Results {
		if !bytes.Contains(row, []byte(`"bal":null`)) {
			t.Fatalf("an overflowed real should render as null: %s", row)
		}
	}
}

// TestLimitIsPrefixOfCanonicalOrder: for every preloaded route under every
// strategy, limit=k returns exactly the first k rows of the limit=0 reply —
// byte for byte, so inner bags included — and the same exact total, whether k
// takes the bounded heap (k < rows) or the full sort. The last route answers
// every row twice, so duplicates straddle each boundary; rows that tie yet
// differ are TestCollectTopIsPrefixOfCollectSorted's, in internal/dataflow.
// The text route after it leads with a market segment that five of the twenty
// customers share, so on an unshredding route — which stitches the reply from
// labels — rows are ordered by comparing bags: orders (empty for some
// customers) and then order dates, a bag of scalars.
func TestLimitIsPrefixOfCanonicalOrder(t *testing.T) {
	s := smallServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	type target struct{ path, text string }
	var targets []target
	s.qmu.RLock()
	for _, name := range s.order {
		if strings.HasPrefix(name, "datasets/") {
			continue // uploads belong to the tests that made them
		}
		for _, level := range s.queries[name].levels {
			targets = append(targets, target{path: fmt.Sprintf("/query?name=%s&level=%d", name, level)})
		}
	}
	s.qmu.RUnlock()
	targets = append(targets, target{path: "/query?", text: "for x in `tpch/ndb-l1` union for twice in `tpch/nation` union if twice.n_nationkey < 2 then { { k := x.o_orderkey, d := x.o_orderdate } }"})
	stitched := target{path: "/query?", text: "for c in `tpch/customer` union { { seg := c.c_mktsegment, " +
		"orders := for o in `tpch/orders` union if o.o_custkey == c.c_custkey && o.o_orderkey < 40 then { { k := o.o_orderkey, d := o.o_orderdate } }, " +
		"dates := for o in `tpch/orders` union if o.o_custkey == c.c_custkey then { o.o_orderdate } } }"}
	targets = append(targets, stitched)

	for _, tg := range targets {
		for _, strat := range append(trance.AllStrategies(), trance.Auto) {
			base := fmt.Sprintf("%s&strategy=%s", tg.path, url.QueryEscape(strat.CLIName()))
			all := decodeReply(t, fetch(t, ts, base+"&limit=0", tg.text))
			if all.Rows == 0 || all.Returned != all.Rows || len(all.Results) != all.Rows || all.Truncated {
				t.Fatalf("%s limit=0: rows %d returned %d results %d truncated %v", base, all.Rows, all.Returned, len(all.Results), all.Truncated)
			}
			if tg == stitched {
				segs, empty := map[string]int{}, 0
				for _, row := range all.Results {
					var r struct {
						Seg    string
						Orders []any
					}
					json.Unmarshal(row, &r)
					segs[r.Seg]++
					if len(r.Orders) == 0 {
						empty++
					}
				}
				if len(segs) >= all.Rows || empty == 0 {
					t.Fatalf("%s: %d segments over %d rows, %d empty order bags — no order is decided through a bag", base, len(segs), all.Rows, empty)
				}
			}
			for _, k := range []int{1, 20, all.Rows, all.Rows + 1} {
				got := decodeReply(t, fetch(t, ts, fmt.Sprintf("%s&limit=%d", base, k), tg.text))
				want := min(k, all.Rows)
				if got.Rows != all.Rows || got.Returned != want || len(got.Results) != want || got.Truncated != (want < all.Rows) {
					t.Fatalf("%s limit=%d: rows %d returned %d results %d truncated %v; want rows %d returned %d",
						base, k, got.Rows, got.Returned, len(got.Results), got.Truncated, all.Rows, want)
				}
				for i, row := range got.Results {
					if !bytes.Equal(row, all.Results[i]) {
						t.Fatalf("%s limit=%d: row %d is not row %d of the full reply:\n got %s\nwant %s", base, k, i, i, row, all.Results[i])
					}
				}
			}
		}
	}
}

// TestReplyEnvelopeShape holds the reply to what a client that does not
// decode the body relies on (the benchmark harness reads rows and elapsed_ms
// this way): each top-level key on its own line at exactly two spaces as
// `"key": value`, so the last "\n  \"rows\": " in the body is the top-level
// one — rows sit deeper and hold no newline — and the keys come sorted.
func TestReplyEnvelopeShape(t *testing.T) {
	ts := httptest.NewServer(smallServer(t))
	defer ts.Close()

	// A result with its own rows and elapsed_ms fields, to shadow the envelope's.
	text := "for c in `tpch/customer` union { { rows := c.c_custkey, elapsed_ms := c.c_acctbal, results := c.c_name } }"
	for _, tc := range []struct{ path, text string }{
		{"/query?name=tpch/nested-to-nested&level=1&strategy=auto&limit=3", ""},
		{"/query?strategy=shred%2Bunshred&limit=5", text},
		{"/query?limit=0", "for c in `tpch/customer` union if c.c_custkey < 0 then { { k := c.c_custkey } }"},
	} {
		body := fetch(t, ts, tc.path, tc.text)
		var out map[string]any
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("%s: not JSON: %v\n%s", tc.path, err, body)
		}
		for _, key := range []string{"rows", "elapsed_ms"} {
			pat := []byte("\n  \"" + key + "\": ")
			if n := bytes.Count(body, pat); n != 1 {
				t.Fatalf("%s: %q occurs %d times, want once at top level:\n%s", tc.path, pat, n, body)
			}
			rest := body[bytes.LastIndex(body, pat)+len(pat):]
			num := string(rest[:bytes.IndexAny(rest, ",\n")])
			if want, _ := json.Marshal(out[key]); num != string(want) {
				t.Fatalf("%s: the line of %s carries %q, the decoded body %s", tc.path, key, num, want)
			}
		}
		var keys []string
		for _, line := range strings.Split(string(body), "\n") {
			if strings.HasPrefix(line, `  "`) {
				keys = append(keys, line[3:3+strings.Index(line[3:], `"`)])
			}
		}
		if len(keys) != len(out) || !sortedStrings(keys) {
			t.Fatalf("%s: top-level lines carry keys %v; the object has %d, and they must be sorted", tc.path, keys, len(out))
		}
		if !bytes.HasPrefix(body, []byte("{\n  \"")) || !bytes.HasSuffix(body, []byte("\n}\n")) {
			t.Fatalf("%s: reply is not one indented object:\n%s", tc.path, body)
		}
	}

	// Every route name the server accepts replies as testdata/replies.golden
	// records — header and body, the volatile fields aside — on a nested and a
	// flat preloaded route and two posted nested texts, the second selective
	// over a nested input, where auto picks a shredded route: shred and
	// shred-skew reply with the shredded top bag; shred+unshred and
	// shred+unshred-skew, which name the same routes, reply nested, as auto
	// does, naming the nested form. Regenerate with `go test ./cmd/tranced
	// -run TestReplyEnvelopeShape -update`.
	nested := "for c in `tpch/customer` union if c.c_custkey < 4 then { { name := c.c_name, " +
		"orders := for o in `tpch/orders` union if o.o_custkey == c.c_custkey then { { k := o.o_orderkey, d := o.o_orderdate } } } }"
	selective := "for x in `tpch/ndb-l1` union if x.o_orderkey < 10 then { { k := x.o_orderkey, n := for l in x.lineitems union { { q := l.l_quantity } } } }"
	var replies bytes.Buffer
	for _, name := range []string{"standard", "sparksql", "shred", "shred+unshred", "standard-skew", "shred-skew", "shred+unshred-skew", "auto"} {
		for _, tc := range []struct{ path, text string }{
			{"/query?name=tpch/nested-to-nested&level=1&limit=2", ""},
			{"/query?name=tpch/nested-to-flat&level=1&limit=2", ""},
			{"/query?limit=0", nested},
			{"/query?limit=2", selective},
		} {
			path := tc.path + "&strategy=" + url.QueryEscape(name)
			route, body := fetchRoute(t, ts, path, tc.text)
			fmt.Fprintf(&replies, "=== %s\nX-Trance-Strategy: %s\n%s", path, route, volatileFields.ReplaceAll(body, []byte(`"$1": -`)))
		}
	}
	// A second start over the same data keys every route as the first does.
	again := httptest.NewServer(smallServer(t))
	defer again.Close()
	fingerprint := func(body []byte) string {
		var out struct{ Fingerprint string }
		if err := json.Unmarshal(body, &out); err != nil || out.Fingerprint == "" {
			t.Fatalf("no fingerprint in %s (%v)", body, err)
		}
		return out.Fingerprint
	}
	for _, text := range []string{nested, selective} {
		if a, b := fingerprint(fetch(t, ts, "/query?limit=2", text)), fingerprint(fetch(t, again, "/query?limit=2", text)); a != b {
			t.Fatalf("%s: one start replies fingerprint %s, another %s", text, a, b)
		}
	}
	const golden = "testdata/replies.golden"
	if *updateReplies {
		if err := os.WriteFile(golden, replies.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing %s (regenerate with -update): %v", golden, err)
	}
	got, wantLines := strings.Split(replies.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(got), len(wantLines)) {
		if i >= len(got) || i >= len(wantLines) || got[i] != wantLines[i] {
			t.Fatalf("replies differ from %s at line %d:\n got %q\nwant %q", golden, i+1, at(got, i), at(wantLines, i))
		}
	}

	// Skew-aware nested-to-nested joins Part by broadcast, which splits
	// nothing: standard-skew returns the rows standard returns, bags in the
	// same element order. The output has a bag column, so auto picks the
	// shredded route, skew-aware here, and replies as shred+unshred-skew does.
	results := func(strategy string) string {
		path := "=== /query?name=tpch/nested-to-nested&level=1&limit=2&strategy=" + url.QueryEscape(strategy) + "\n"
		body := replies.String()[strings.Index(replies.String(), path):]
		body = body[strings.Index(body, `"results": [`):]
		return body[:strings.Index(body, "\n  ]")]
	}
	for name, twin := range map[string]string{"standard-skew": "standard", "auto": "shred+unshred-skew"} {
		if got, want := results(name), results(twin); got != want {
			t.Errorf("nested-to-nested level 1 %s returned\n%s\n%s\n%s", name, got, twin, want)
		}
	}
}

// at is lines[i], or "" past the end.
func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return ""
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			return false
		}
	}
	return true
}
