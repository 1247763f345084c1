package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"github.com/trance-go/trance"
)

// fetch returns the raw body of a 200 reply; a non-empty text is POSTed.
func fetch(t *testing.T, ts *httptest.Server, path, text string) []byte {
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
	return body
}

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

	for _, tg := range targets {
		for _, strat := range append(trance.AllStrategies(), trance.Auto) {
			base := fmt.Sprintf("%s&strategy=%s", tg.path, url.QueryEscape(strat.CLIName()))
			all := decodeReply(t, fetch(t, ts, base+"&limit=0", tg.text))
			if all.Rows == 0 || all.Returned != all.Rows || len(all.Results) != all.Rows || all.Truncated {
				t.Fatalf("%s limit=0: rows %d returned %d results %d truncated %v", base, all.Rows, all.Returned, len(all.Results), all.Truncated)
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
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			return false
		}
	}
	return true
}
