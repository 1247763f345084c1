// The query reply path: the one way a request reaches the engine and a result
// reaches the client. See docs/SERVING.md for the reply format.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"github.com/trance-go/trance"
)

// bodyWriter counts the body bytes handed to the client and, like
// bufio.Writer, keeps the first write error and drops what follows it: once
// the status line is out there is nobody to report a failed write to, so the
// reply path writes on unconditionally.
type bodyWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (b *bodyWriter) Write(p []byte) (int, error) {
	if b.err != nil {
		return 0, b.err
	}
	n, err := b.w.Write(p)
	b.n += int64(n)
	b.err = err
	return n, err
}

// runAndReply runs the route, folds the outcome into its /metrics entry, and
// streams the rows typed by the schema the run itself carries (res.Columns) —
// one catalog resolution per request, so schema and rows cannot come from
// different generations. extra fields are merged into the response object.
//
// The object keeps the shape the indenting encoder gave it — top-level keys
// sorted, one per line at two spaces, `"key": value` — so a client can find
// rows or elapsed_ms without decoding the body; results holds one compact
// row per line, written by Result.WriteJSON as it is encoded.
func (s *server) runAndReply(w http.ResponseWriter, r *http.Request, t *trance.Trace, rt route, limit int, extra map[string]any) {
	res, err := rt.sq.Run(r.Context(), rt.strat)
	s.record(rt, res, err != nil)
	switch {
	case err == nil:
	case r.Context().Err() != nil && errors.Is(err, r.Context().Err()):
		return // client went away; nothing sensible to write
	case res == nil:
		// The run never reached the executor: the query no longer resolves or
		// typechecks against the catalog, or the query/strategy combination
		// does not compile — a client-side problem, reported without crashing
		// anything.
		httpError(w, http.StatusBadRequest, "compile %s: %v", rt.what, err)
		return
	default:
		httpError(w, http.StatusInternalServerError, "execute %s: %v", rt.what, err)
		return
	}
	// The route requested, or the one auto chose, read nested like every auto reply.
	name := rt.stratName
	if rt.strat == trance.Auto {
		name = nested(res.Strategy.CLIName())
		extra["requested"] = "auto"
		extra["chosen_strategy"] = name
	}
	extra["strategy"] = rt.paper(res.Strategy)
	if rt.readsTop() {
		res = res.Top()
	}
	extra["elapsed_ms"] = float64(res.Elapsed.Microseconds()) / 1000
	// columns and results render themselves below; the other three are known
	// once the rows are written, and sort after results.
	for _, k := range []string{"columns", "results", "returned", "rows", "truncated"} {
		extra[k] = nil
	}
	keys := make([]string, 0, len(extra))
	for k := range extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	// Under strategy=auto the route the cost model chose, visible without
	// parsing the body.
	w.Header().Set("X-Trance-Strategy", name)
	w.Header().Set("Content-Type", "application/json")
	start := time.Now()
	body := &bodyWriter{w: w}
	open := "{"
	for _, k := range keys {
		fmt.Fprintf(body, "%s\n  %q: ", open, k)
		open = ","
		switch k {
		case "columns":
			writeColumns(body, res.Columns)
		case "results":
			io.WriteString(body, "[")
			returned, total, _ := res.WriteJSON(r.Context(), body, limit, "\n    ", ",") // body keeps the error
			if returned > 0 {
				io.WriteString(body, "\n  ")
			}
			io.WriteString(body, "]")
			extra["returned"], extra["rows"], extra["truncated"] = returned, total, returned < total
		default:
			v, _ := json.Marshal(extra[k]) // strings, numbers and booleans
			body.Write(v)
		}
	}
	io.WriteString(body, "\n}\n")
	s.recordReply(rt, body.n, time.Since(start))
}

// writeColumns renders the output schema as the indenting encoder did.
func writeColumns(w io.Writer, cols []trance.OutputColumn) {
	open := "["
	for _, c := range cols {
		name, _ := json.Marshal(c.Name)
		typ, _ := json.Marshal(c.Type.String())
		fmt.Fprintf(w, "%s\n    {\n      \"name\": %s,\n      \"type\": %s\n    }", open, name, typ)
		open = ","
	}
	if len(cols) > 0 {
		io.WriteString(w, "\n  ")
	} else {
		io.WriteString(w, "[")
	}
	io.WriteString(w, "]")
}
