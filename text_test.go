package trance_test

import (
	"context"
	"strings"
	"testing"

	"github.com/trance-go/trance"
	"github.com/trance-go/trance/internal/parse"
	"github.com/trance-go/trance/internal/runner"
)

func textCatalog(t *testing.T) *trance.Catalog {
	t.Helper()
	cat := trance.NewCatalog()
	const ndjson = `
{"cname": "alice", "orders": [{"pid": 1, "qty": 12.0}, {"pid": 2, "qty": 3.0}]}
{"cname": "bob",   "orders": [{"pid": 1, "qty": 40.0}]}
{"cname": "carol", "orders": []}
`
	if _, err := cat.RegisterJSON("CO", strings.NewReader(ndjson)); err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestPrepareText runs a textual query end to end through the Session API
// and checks it against the equivalent builder query under every strategy.
func TestPrepareText(t *testing.T) {
	cat := textCatalog(t)
	sess := cat.NewSession(trance.SessionOptions{})

	const text = `
for c in CO union
  { {
      cname := c.cname,
      big := for o in c.orders union
               if o.qty > 10.0 then { o }
  } }`
	built := trance.ForIn("c", trance.V("CO"),
		trance.SingOf(trance.Record(
			"cname", trance.P(trance.V("c"), "cname"),
			"big", trance.ForIn("o", trance.P(trance.V("c"), "orders"),
				trance.IfThen(trance.GtOf(trance.P(trance.V("o"), "qty"), trance.C(10.0)),
					trance.SingOf(trance.V("o")))))))

	sqText, err := sess.PrepareText("text", text)
	if err != nil {
		t.Fatal(err)
	}
	sqBuilt, err := sess.PrepareNamed("built", built)
	if err != nil {
		t.Fatal(err)
	}
	// Structurally identical queries share a fingerprint (and compiled plans).
	if sqText.Prepared().Fingerprint() != sqBuilt.Prepared().Fingerprint() {
		t.Fatalf("text and builder fingerprints differ:\n%s\nvs\n%s", text, trance.Print(built))
	}
	for _, strat := range []trance.Strategy{trance.Standard, trance.Shred} {
		a, err := runJSON(context.Background(), sqText, strat)
		if err != nil {
			t.Fatalf("%s text: %v", strat, err)
		}
		b, err := runJSON(context.Background(), sqBuilt, strat)
		if err != nil {
			t.Fatalf("%s built: %v", strat, err)
		}
		if len(a) != 3 || len(a) != len(b) {
			t.Fatalf("%s: %d vs %d rows", strat, len(a), len(b))
		}
	}
}

// TestPrepareTextDiagnostics: type and resolution errors point back into the
// query text with caret diagnostics at every session entry point.
func TestPrepareTextDiagnostics(t *testing.T) {
	cat := textCatalog(t)
	sess := cat.NewSession(trance.SessionOptions{})

	// Parse error.
	_, err := sess.PrepareText("", "for c CO union { c }")
	var pe *parse.Error
	if !asParseError(err, &pe) || !strings.Contains(err.Error(), "^") {
		t.Fatalf("parse error: %v", err)
	}

	// Type error: caret under the bad projection on line 2.
	_, err = sess.PrepareText("", "for c in CO union\n  { { x := c.nope } }")
	if !asParseError(err, &pe) || pe.Pos.Line != 2 || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("type error: %v", err)
	}

	// Unknown dataset: caret under the variable reference.
	_, err = sess.PrepareText("", "for c in Missing union { c }")
	if !asParseError(err, &pe) || pe.Pos.Col != 10 || !strings.Contains(err.Error(), "no dataset") {
		t.Fatalf("resolve error: %v", err)
	}

	// Same for programs: the failing statement's node is located, in the
	// first statement or a later one.
	_, err = sess.PrepareText("", "A := for c in CO union { { q := c.nope } };\nsumby[q; q](A)")
	if !asParseError(err, &pe) || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("program type error: %v", err)
	}
	_, err = sess.PrepareText("", "A := for c in CO union { { q := c.cname } };\nfor a in A union { { r := a.nope } }")
	if !asParseError(err, &pe) || pe.Pos.Line != 2 || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("second-statement type error: %v", err)
	}
}

func asParseError(err error, pe **parse.Error) bool {
	if err == nil {
		return false
	}
	e, ok := err.(*parse.Error)
	if ok {
		*pe = e
	}
	return ok
}

// TestPrepareTextProgram runs a textual multi-statement program through the
// one text entry point and checks its totals.
func TestPrepareTextProgram(t *testing.T) {
	cat := textCatalog(t)
	sess := cat.NewSession(trance.SessionOptions{})

	const prog = `
Flat := for c in CO union
          for o in c.orders union
            { { cname := c.cname, qty := o.qty } };
sumby[cname; qty](Flat)`
	sp, err := sess.PrepareText("", prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []trance.Strategy{trance.Standard, trance.Shred} {
		rows, err := runJSON(context.Background(), sp, strat)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if len(rows) != 2 {
			t.Fatalf("%s: rows %v", strat, rows)
		}
		byName := map[string]float64{}
		for _, r := range rows {
			byName[r["cname"].(string)] = r["qty"].(float64)
		}
		if byName["alice"] != 15.0 || byName["bob"] != 40.0 {
			t.Fatalf("%s: totals %v", strat, byName)
		}
	}
}

// TestProgramRunsLikeAQuery: a multi-statement program takes the same one
// path a query does, so with a trace attached and Analyze() it records the
// resolve/compile/bind/execute spans, stamps the trace ID, times both steps,
// and renders per-operator actuals for both steps — what `trance query
// -analyze -timing` prints for program text.
func TestProgramRunsLikeAQuery(t *testing.T) {
	cat := textCatalog(t)
	sess := cat.NewSession(trance.SessionOptions{})
	sq, err := sess.PrepareText("", `
Flat := for c in CO union
          for o in c.orders union
            { { cname := c.cname, qty := o.qty } };
sumby[cname; qty](Flat)`)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []trance.Strategy{trance.Standard, trance.Shred} {
		tr := trance.NewTrace("test")
		res, err := sq.Run(trance.ContextWithTrace(context.Background(), tr), strat, trance.Analyze())
		tr.Finish()
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		tree := tr.Tree()
		for _, span := range []string{"resolve", "compile", "bind", "execute"} {
			if !strings.Contains(tree, span) {
				t.Errorf("%s: trace lacks a %s span:\n%s", strat, span, tree)
			}
		}
		if res.TraceID == "" || res.TraceID != tr.ID {
			t.Errorf("%s: TraceID %q, want %q", strat, res.TraceID, tr.ID)
		}
		if len(res.StepElapsed) != 2 || res.FailedStep != -1 {
			t.Errorf("%s: StepElapsed %v, FailedStep %d", strat, res.StepElapsed, res.FailedStep)
		}
		text := res.ExplainAnalyze()
		first, second, ok := strings.Cut(text, "--- step 2: result ---")
		if !ok || !strings.Contains(first, "--- step 1: Flat ---") {
			t.Fatalf("%s: analyzed explain lacks the step headers:\n%s", strat, text)
		}
		if !strings.Contains(first, "actual_rows=") || !strings.Contains(second, "actual_rows=") {
			t.Errorf("%s: analyzed explain lacks per-operator actuals for both steps:\n%s", strat, text)
		}
	}
}

// TestSessionSharesConvertedRows: many ad-hoc queries over one dataset must
// share a single converted (value-shredded) copy per route, not hold one
// each — the bound that keeps a text-query service's memory proportional to
// the data, not to the number of distinct query texts.
func TestSessionSharesConvertedRows(t *testing.T) {
	cat := textCatalog(t)
	sess := cat.NewSession(trance.SessionOptions{})
	var bound []*runner.Input
	texts := []string{
		"for c in CO union { { n := c.cname } }",
		"for c in CO union { { k := c.cname, m := c.cname } }",
		"for c in CO union for o in c.orders union { { q := o.qty } }",
	}
	for _, text := range texts {
		sq, err := sess.PrepareText("", text)
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []trance.Strategy{trance.Standard, trance.Shred} {
			if _, err := sq.Run(context.Background(), strat); err != nil {
				t.Fatalf("%s: %v", strat, err)
			}
		}
		bound = append(bound, trance.BoundInputs(sq)["CO"])
	}
	// One bound input of CO, converted once per route, shared by all 3 queries.
	owned := trance.CatalogInputs(cat, "CO")
	if len(owned) != 1 || owned["CO"] == nil {
		t.Fatalf("catalog owns inputs %v of CO, want one under CO", owned)
	}
	for i, in := range bound {
		if in != owned["CO"] {
			t.Errorf("query %d binds its own input of CO, not the generation's", i)
		}
	}
}

// TestParseRoot exercises the root-level Parse/ParseProgram wrappers.
func TestParseRoot(t *testing.T) {
	q, err := trance.Parse("for x in R union { x }")
	if err != nil {
		t.Fatal(err)
	}
	if got := trance.Print(q); !strings.Contains(got, "for x in R union") {
		t.Fatalf("print: %s", got)
	}
	if _, err := trance.Parse("for x in"); err == nil {
		t.Fatal("want parse error")
	}
	p, err := trance.ParseProgram("A := { 1 };\nfor x in A union { x }")
	if err != nil {
		t.Fatal(err)
	}
	steps := p.Stmts
	if len(steps) != 2 || steps[0].Name != "A" || steps[1].Name != "result" {
		t.Fatalf("steps: %+v", steps)
	}
}

// TestAutoAnswersWhereShreddingCannot: a NULL among a bag's tuples has no
// shredded form, so the shredded routes fail to bind such an input. Auto,
// which picks the shredded route for a nested output, answers on the standard
// variant instead, with the bytes standard replies.
func TestAutoAnswersWhereShreddingCannot(t *testing.T) {
	cat := trance.NewCatalog()
	const ndjson = `
{"cname": "alice", "orders": [null, {"pid": 1, "qty": 12.0}]}
{"cname": "bob",   "orders": [{"pid": 2, "qty": 40.0}]}
`
	if _, err := cat.RegisterJSON("CO", strings.NewReader(ndjson)); err != nil {
		t.Fatal(err)
	}
	sq, err := cat.NewSession(trance.SessionOptions{}).PrepareText("", "for c in CO union { { cname := c.cname, orders := c.orders } }")
	if err != nil {
		t.Fatal(err)
	}
	if ex, err := sq.Prepared().Explain(trance.Auto); err != nil || !strings.Contains(ex, "output column orders is a bag") {
		t.Fatalf("auto does not choose the shredded route (%v):\n%s", err, ex)
	}
	reply := func(strat trance.Strategy) (string, trance.Strategy, error) {
		res, err := sq.Run(context.Background(), strat)
		if err != nil {
			return "", 0, err
		}
		var b strings.Builder
		if _, _, err := res.WriteJSON(context.Background(), &b, 0, "", "\n"); err != nil {
			return "", 0, err
		}
		return b.String(), res.Strategy, nil
	}
	want, _, err := reply(trance.Standard)
	if err != nil || !strings.Contains(want, `"orders":[null,`) {
		t.Fatalf("standard replied %q, %v", want, err)
	}
	if _, _, err := reply(trance.Shred); err == nil || !strings.Contains(err.Error(), "no shredded form") {
		t.Fatalf("shred bound a NULL tuple element: %v", err)
	}
	got, chosen, err := reply(trance.Auto)
	if err != nil || got != want || chosen != trance.Standard {
		t.Fatalf("auto replied %q on %s (%v), standard %q", got, chosen, err, want)
	}
}
