package parse_test

import (
	"strings"
	"testing"

	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/parse"
	"github.com/trance-go/trance/internal/value"
)

// mustParse parses src or fails the test.
func mustParse(t *testing.T, src string) *parse.Result {
	t.Helper()
	r, err := parse.Query(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return r
}

// reprint asserts the canonical print of src's AST equals want (single-space
// normalized), and that the print re-parses to the same print.
func assertPrint(t *testing.T, src, want string) {
	t.Helper()
	r := mustParse(t, src)
	got := normalize(nrc.Print(r.Expr))
	if got != want {
		t.Fatalf("parse %q\n  printed %q\n  want    %q", src, got, want)
	}
	r2, err := parse.Query(nrc.Print(r.Expr))
	if err != nil {
		t.Fatalf("reparse of print %q: %v", got, err)
	}
	if p2 := normalize(nrc.Print(r2.Expr)); p2 != got {
		t.Fatalf("print not stable: %q vs %q", got, p2)
	}
}

func normalize(s string) string {
	return strings.Join(strings.Fields(s), " ")
}

func TestParseBasics(t *testing.T) {
	cases := map[string]string{
		"1 + 2 * 3":                             "1 + 2 * 3",
		"(1 + 2) * 3":                           "(1 + 2) * 3",
		"1 - 2 - 3":                             "1 - 2 - 3",
		"1 - (2 - 3)":                           "1 - (2 - 3)",
		"x.a.b":                                 "x.a.b",
		"-5":                                    "-5",
		"-x.a":                                  "0 - x.a",
		"-2.5":                                  "-2.5",
		"1.0":                                   "1.0",
		"1e3":                                   "1000.0",
		`"hi\n"`:                                `"hi\n"`,
		"true && false || ! true":               "true && false || !true",
		"a == b && c != d":                      "a == b && c != d",
		"a union b union c":                     "a union b union c",
		"a union (b union c)":                   "a union (b union c)",
		`date("2020-01-15")`:                    `date("2020-01-15")`,
		"{ x }":                                 "{ x }",
		"{}":                                    "{}",
		"{a := 1, b := x.f}":                    "{ a := 1, b := x.f }",
		"{ {a := 1} }":                          "{ { a := 1 } }",
		"get(x)":                                "get(x)",
		"dedup(R)":                              "dedup(R)",
		"empty(int)":                            "empty(int)",
		"empty({a: int, b: bag({c: date})})":    "empty({a: int, b: bag({c: date})})",
		"groupby[a,b](R)":                       "groupby[a,b](R)",
		"groupby[a as grp](R)":                  "groupby[a as grp](R)",
		"sumby[a; t](R)":                        "sumby[a; t](R)",
		"sumby[; t](R)":                         "sumby[; t](R)",
		"for x in R union { x }":                "for x in R union { x }",
		"if a then { x }":                       "if a then { x }",
		"if a then 1 else 2":                    "if a then 1 else 2",
		"let x := 1 in { x }":                   "let x := 1 in { x }",
		"`tpch/ndb-l2`":                         "`tpch/ndb-l2`",
		"`for`":                                 "`for`",
		"x.`weird field`":                       "x.`weird field`",
		"x.`a``b`":                              "x.`a``b`",
		"if a then (if b then 1 else 2) else 3": "if a then (if b then 1 else 2) else 3",
		"for x in (for y in R union { y }) union { x }": "for x in (for y in R union { y }) union { x }",
		"for x in R union for y in S union { x }":       "for x in R union for y in S union { x }",
		"-- comment\n1 // more\n+ 2":                    "1 + 2",
	}
	for src, want := range cases {
		assertPrint(t, src, want)
	}
}

func TestParseNestedComprehension(t *testing.T) {
	src := `
for c in COP union
  { {
      cname := c.cname,
      totals := sumby[pname; total](
        for o in c.corders union
          for p in Part union
            if o.pid == p.pid then
              { { pname := p.pname, total := o.qty * p.price } })
  } }`
	r := mustParse(t, src)
	f, ok := r.Expr.(*nrc.For)
	if !ok {
		t.Fatalf("want For, got %T", r.Expr)
	}
	if f.Var != "c" {
		t.Fatalf("var: %s", f.Var)
	}
	sing := f.Body.(*nrc.Sing)
	tup := sing.Elem.(*nrc.TupleCtor)
	if len(tup.Fields) != 2 || tup.Fields[0].Name != "cname" || tup.Fields[1].Name != "totals" {
		t.Fatalf("fields: %+v", tup.Fields)
	}
	if _, ok := tup.Fields[1].Expr.(*nrc.SumBy); !ok {
		t.Fatalf("totals is %T", tup.Fields[1].Expr)
	}
}

func TestParseErrorsCarryPositions(t *testing.T) {
	cases := []struct {
		src     string
		wantPos string // "line:col"
		frag    string
	}{
		{"for x R union { x }", "1:7", "'in'"},
		{"1 +", "1:4", "expression"},
		{"{a := }", "1:7", "expression"},
		{"a == b == c", "1:8", "chain"},
		{"for for in R union { x }", "1:5", "reserved"},
		{`"unterminated`, "1:1", "unterminated"},
		{"`unterminated", "1:1", "unterminated"},
		{"1 & 2", "1:3", "&&"},
		{"99999999999999999999", "1:1", "out of range"},
		{`date("not-a-date")`, "1:6", "yyyy-mm-dd"},
		{"x.", "1:3", "field"},
		{"A union for x in R union { x }", "1:9", "parenthesize"},
		{"line1 +\n  @", "2:3", "unexpected"},
	}
	for _, c := range cases {
		_, err := parse.Query(c.src)
		if err == nil {
			t.Fatalf("parse %q: want error", c.src)
		}
		pe, ok := err.(*parse.Error)
		if !ok {
			t.Fatalf("parse %q: error is %T, not *parse.Error: %v", c.src, err, err)
		}
		if got := pe.Pos.String(); got != c.wantPos {
			t.Errorf("parse %q: error at %s, want %s (%v)", c.src, got, c.wantPos, err)
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("parse %q: error %q missing %q", c.src, err.Error(), c.frag)
		}
		if !strings.Contains(err.Error(), "^") {
			t.Errorf("parse %q: error lacks caret diagnostic:\n%s", c.src, err)
		}
	}
}

func TestDiagnoseTypeError(t *testing.T) {
	r := mustParse(t, "for x in R union\n  { x.nope }")
	env := nrc.Env{"R": nrc.BagOf(nrc.Tup("a", nrc.IntT))}
	_, err := nrc.Check(r.Expr, env)
	if err == nil {
		t.Fatal("want type error")
	}
	derr := r.Diagnose(err)
	pe, ok := derr.(*parse.Error)
	if !ok {
		t.Fatalf("diagnosed error is %T: %v", derr, derr)
	}
	if pe.Pos.Line != 2 {
		t.Fatalf("type error at %s, want line 2:\n%s", pe.Pos, derr)
	}
	if !strings.Contains(derr.Error(), "nope") || !strings.Contains(derr.Error(), "^") {
		t.Fatalf("diagnostic: %s", derr)
	}
}

func TestParseEvalAgainstBuilder(t *testing.T) {
	// The parsed text and the builder AST must evaluate identically.
	src := `
for c in CO union
  { {
      name := c.cname,
      big := for o in c.orders union
               if o.qty >= 10 then { o }
  } }`
	built := nrc.ForIn("c", nrc.V("CO"),
		nrc.SingOf(nrc.Record(
			"name", nrc.P(nrc.V("c"), "cname"),
			"big", nrc.ForIn("o", nrc.P(nrc.V("c"), "orders"),
				nrc.IfThen(nrc.GeOf(nrc.P(nrc.V("o"), "qty"), nrc.C(10)),
					nrc.SingOf(nrc.V("o")))))))
	if got, want := nrc.Print(mustParse(t, src).Expr), nrc.Print(built); got != want {
		t.Fatalf("structural mismatch:\n%s\nvs\n%s", got, want)
	}

	env := nrc.Env{"CO": nrc.BagOf(nrc.Tup("cname", nrc.StringT,
		"orders", nrc.BagOf(nrc.Tup("qty", nrc.IntT))))}
	inputs := map[string]bool{}
	_ = inputs
	r := mustParse(t, src)
	if _, err := nrc.Check(r.Expr, env); err != nil {
		t.Fatal(err)
	}
	if _, err := nrc.Check(built, env); err != nil {
		t.Fatal(err)
	}
	data := value.Bag{
		value.Tuple{"alice", value.Bag{value.Tuple{int64(3)}, value.Tuple{int64(12)}}},
	}
	var s *nrc.Scope
	s = s.Bind("CO", data)
	if !value.Equal(nrc.Eval(r.Expr, s), nrc.Eval(built, s)) {
		t.Fatal("parsed and built queries evaluate differently")
	}
}

func TestParseProgram(t *testing.T) {
	src := `
Step1 := for x in R union { { a := x.a + 1 } };
Step2 := for y in Step1 union { { b := y.a * 2 } };
for z in Step2 union { z }`
	pr, err := parse.Program(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Program.Stmts) != 3 {
		t.Fatalf("stmts: %d", len(pr.Program.Stmts))
	}
	if pr.Program.Stmts[0].Name != "Step1" || pr.Program.Stmts[1].Name != "Step2" {
		t.Fatalf("names: %+v", pr.Program.Stmts)
	}
	if pr.ResultName != "result" {
		t.Fatalf("result name: %s", pr.ResultName)
	}

	// `let name := e;` statements are accepted, and a trailing let-expression
	// still parses as the result expression.
	pr2, err := parse.Program("let A := for x in R union { x };\nlet y := 1 in { y }")
	if err != nil {
		t.Fatal(err)
	}
	if len(pr2.Program.Stmts) != 2 || pr2.Program.Stmts[0].Name != "A" {
		t.Fatalf("stmts: %+v", pr2.Program.Stmts)
	}
	if _, ok := pr2.Program.Stmts[1].Expr.(*nrc.Let); !ok {
		t.Fatalf("result is %T, want let-expression", pr2.Program.Stmts[1].Expr)
	}

	// All-assignment programs use the last assignment as the result.
	pr3, err := parse.Program("A := for x in R union { x };")
	if err != nil {
		t.Fatal(err)
	}
	if pr3.ResultName != "A" {
		t.Fatalf("result: %s", pr3.ResultName)
	}

	if _, err := parse.Program("  "); err == nil {
		t.Fatal("empty program should fail")
	}
}

func TestPrintProgramRoundTrip(t *testing.T) {
	src := "A := for x in R union { x };\nsumby[a; b](A)"
	pr, err := parse.Program(src)
	if err != nil {
		t.Fatal(err)
	}
	printed := nrc.PrintProgram(pr.Program)
	pr2, err := parse.Program(printed)
	if err != nil {
		t.Fatalf("reparse of PrintProgram output:\n%s\n%v", printed, err)
	}
	if got, want := nrc.PrintProgram(pr2.Program), printed; got != want {
		t.Fatalf("program print not stable:\n%s\nvs\n%s", got, want)
	}
}

// TestHostileIdentifiers: names containing backquotes or newlines (JSON
// keys are arbitrary) round-trip through print and parse, and deep nesting
// — expressions and types — errors with a position instead of crashing.
func TestHostileIdentifiers(t *testing.T) {
	for _, name := range []string{"a`b", "``", "line\nbreak", "tab\there"} {
		v := &nrc.Var{Name: name}
		printed := nrc.Print(v)
		r, err := parse.Query(printed)
		if err != nil {
			t.Fatalf("name %q: print %q does not re-parse: %v", name, printed, err)
		}
		got, ok := r.Expr.(*nrc.Var)
		if !ok || got.Name != name {
			t.Fatalf("name %q: round-tripped to %#v", name, r.Expr)
		}
	}
}

func TestDeepNestingErrorsNotCrash(t *testing.T) {
	deepExpr := strings.Repeat("get(", 200000) + "x" + strings.Repeat(")", 200000)
	if _, err := parse.Query(deepExpr); err == nil {
		t.Fatal("deep expression should error")
	} else if pe, ok := err.(*parse.Error); !ok || pe.Pos.Line < 1 {
		t.Fatalf("deep expression error unpositioned: %v", err)
	}
	deepType := "empty(" + strings.Repeat("bag(", 200000) + "int" + strings.Repeat(")", 200000) + ")"
	if _, err := parse.Query(deepType); err == nil {
		t.Fatal("deep type should error")
	} else if !strings.Contains(err.Error(), "nests deeper") {
		t.Fatalf("deep type error: %v", err)
	}
}

func TestFirstVarAndErrorAt(t *testing.T) {
	r := mustParse(t, "for x in Missing union { x }")
	v, ok := r.FirstVar("Missing")
	if !ok {
		t.Fatal("FirstVar")
	}
	err := r.ErrorAt(v, "no dataset Missing")
	pe, ok := err.(*parse.Error)
	if !ok || pe.Pos.Col != 10 {
		t.Fatalf("ErrorAt: %v", err)
	}
}
