package parse

import (
	"fmt"
	"math"
	"strconv"

	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/value"
)

// Result is a successfully parsed query expression plus the source/position
// context needed to diagnose later (type, resolution) errors against the
// text.
type Result struct {
	Source
	Expr nrc.Expr
}

// ProgramResult is a successfully parsed multi-statement program.
type ProgramResult struct {
	Source
	Program *nrc.Program
	// ResultName is the name of the final statement (the program's result):
	// the synthesized "result" when the program ended in a bare expression,
	// otherwise the last assignment's name.
	ResultName string
	// Query reports that the text was one bare expression, no assignment: a
	// query, the one-step program, parsed exactly as Query parses it.
	Query bool
}

// Query parses a single query expression. Errors are *Error caret
// diagnostics and never panics.
func Query(src string) (*Result, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	e, perr := p.parseExpr()
	if perr != nil {
		return nil, perr
	}
	if perr := p.expect(tEOF, "after the query"); perr != nil {
		return nil, perr
	}
	return &Result{Source: p.source(), Expr: e}, nil
}

// Program parses a multi-statement program: zero or more `name := expr;`
// assignments (later statements may reference earlier names) ending in a
// result expression — either a final bare expression (assigned the name
// "result") or, when every statement is an assignment, the last assignment.
// The statement form `let name := expr;` is also accepted; it is
// disambiguated from a trailing let-expression by the absence of `in`. A
// text Query accepts is a program too, with the same errors.
func Program(src string) (*ProgramResult, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	prog, query, perr := p.parseProgram()
	if perr != nil {
		return nil, perr
	}
	return &ProgramResult{
		Source:     p.source(),
		Program:    prog,
		ResultName: prog.Stmts[len(prog.Stmts)-1].Name,
		Query:      query,
	}, nil
}

type parser struct {
	src   string
	toks  []token
	i     int
	depth int
	pos   map[nrc.Expr]Pos
	vars  map[string]nrc.Expr
}

// maxNestingDepth bounds expression nesting so pathological input (a
// megabyte of open parens) reports a positioned error instead of exhausting
// the stack. Real queries nest a few dozen levels at most.
const maxNestingDepth = 5000

func newParser(src string) (*parser, *Error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	return &parser{
		src: src, toks: toks,
		pos:  map[nrc.Expr]Pos{},
		vars: map[string]nrc.Expr{},
	}, nil
}

func (p *parser) source() Source {
	return Source{src: p.src, pos: p.pos, vars: p.vars}
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) peekAt(n int) token {
	if p.i+n >= len(p.toks) {
		return p.toks[len(p.toks)-1] // EOF
	}
	return p.toks[p.i+n]
}

func (p *parser) next() token {
	t := p.toks[p.i]
	if t.Kind != tEOF {
		p.i++
	}
	return t
}

func (p *parser) at(k tokKind) bool { return p.peek().Kind == k }

func (p *parser) accept(k tokKind) (token, bool) {
	if p.at(k) {
		return p.next(), true
	}
	return token{}, false
}

func (p *parser) errf(pos Pos, format string, args ...any) *Error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...), src: p.src}
}

func (p *parser) errHere(format string, args ...any) *Error {
	return p.errf(p.peek().Pos, format, args...)
}

func (p *parser) expect(k tokKind, where string) *Error {
	if _, ok := p.accept(k); ok {
		return nil
	}
	return p.errHere("expected %s %s, found %s", k, where, p.describeHere())
}

func (p *parser) describeHere() string {
	t := p.peek()
	switch t.Kind {
	case tEOF:
		return "end of input"
	case tIdent:
		return fmt.Sprintf("identifier %q", t.Text)
	case tInt, tReal:
		return fmt.Sprintf("number %s", t.Text)
	case tString:
		return fmt.Sprintf("string %q", t.Text)
	default:
		return t.Kind.String()
	}
}

func (p *parser) expectIdent(where string) (token, *Error) {
	if t, ok := p.accept(tIdent); ok {
		return t, nil
	}
	if kw := p.peek(); kw.Kind >= tFor && kw.Kind <= tEmpty {
		return token{}, p.errHere("%q is a reserved word and cannot be used as %s (backquote it: `%s`)", kw.Text, where, kw.Text)
	}
	return token{}, p.errHere("expected %s, found %s", where, p.describeHere())
}

// record registers a node's start position and returns it.
func (p *parser) record(e nrc.Expr, pos Pos) nrc.Expr {
	p.pos[e] = pos
	return e
}

// --- program ---

// parseProgram also reports whether the program is one bare expression.
func (p *parser) parseProgram() (*nrc.Program, bool, *Error) {
	var stmts []nrc.Assignment
	names := map[string]bool{}
	for {
		if p.at(tIdent) && p.peekAt(1).Kind == tAssign {
			name := p.next().Text
			p.next() // :=
			e, err := p.parseExpr()
			if err != nil {
				return nil, false, err
			}
			stmts = append(stmts, nrc.Assignment{Name: name, Expr: e})
			names[name] = true
			p.accept(tSemi)
			continue
		}
		if p.at(tLet) && p.peekAt(1).Kind == tIdent && p.peekAt(2).Kind == tAssign {
			// `let x := e in body` is an expression; `let x := e;` a
			// statement. Parse the assignment, then decide on `in`.
			mark := p.i
			p.next() // let
			name := p.next().Text
			p.next() // :=
			e, err := p.parseExpr()
			if err != nil {
				return nil, false, err
			}
			if p.at(tIn) {
				p.i = mark // a let-expression: re-parse as the result expression
				break
			}
			stmts = append(stmts, nrc.Assignment{Name: name, Expr: e})
			names[name] = true
			p.accept(tSemi)
			continue
		}
		break
	}
	if len(stmts) > 0 && p.at(tEOF) {
		return &nrc.Program{Stmts: stmts}, false, nil
	}
	final, err := p.parseExpr()
	if err != nil {
		return nil, false, err
	}
	where := "after the result expression"
	if len(stmts) == 0 {
		where = "after the query"
	}
	if err := p.expect(tEOF, where); err != nil {
		return nil, false, err
	}
	name := "result"
	for names[name] {
		name += "_"
	}
	stmts = append(stmts, nrc.Assignment{Name: name, Expr: final})
	return &nrc.Program{Stmts: stmts}, len(stmts) == 1, nil
}

// --- expressions, lowest precedence first ---

// parseExpr parses a full expression. The binder forms (for, let, if) live
// at the lowest precedence level and extend as far right as possible; as an
// operand of any operator they must be parenthesized.
func (p *parser) parseExpr() (nrc.Expr, *Error) {
	p.depth++
	defer func() { p.depth-- }()
	if p.depth > maxNestingDepth {
		return nil, p.errHere("expression nests deeper than %d levels", maxNestingDepth)
	}
	switch p.peek().Kind {
	case tFor:
		return p.parseFor()
	case tLet:
		return p.parseLet()
	case tIf:
		return p.parseIf()
	}
	return p.parseOr()
}

func (p *parser) parseFor() (nrc.Expr, *Error) {
	start := p.next().Pos // for
	v, err := p.expectIdent("a loop variable after 'for'")
	if err != nil {
		return nil, err
	}
	if err := p.expect(tIn, "after the loop variable"); err != nil {
		return nil, err
	}
	// The source binds tighter than `union`: the first `union` token
	// separates it from the body. Parenthesize union/comparison/binder
	// sources.
	src, err := p.parseBin(precAddL)
	if err != nil {
		return nil, err
	}
	if err := p.expect(tUnion, "separating the source from the body of 'for'"); err != nil {
		return nil, err
	}
	body, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return p.record(&nrc.For{Var: v.Text, Source: src, Body: body}, start), nil
}

func (p *parser) parseLet() (nrc.Expr, *Error) {
	start := p.next().Pos // let
	v, err := p.expectIdent("a variable after 'let'")
	if err != nil {
		return nil, err
	}
	if err := p.expect(tAssign, "after the 'let' variable"); err != nil {
		return nil, err
	}
	val, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tIn, "after the 'let' value"); err != nil {
		return nil, err
	}
	body, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return p.record(&nrc.Let{Var: v.Text, Val: val, Body: body}, start), nil
}

func (p *parser) parseIf() (nrc.Expr, *Error) {
	start := p.next().Pos // if
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tThen, "after the 'if' condition"); err != nil {
		return nil, err
	}
	then, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	node := &nrc.If{Cond: cond, Then: then}
	if _, ok := p.accept(tElse); ok {
		els, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		node.Else = els
	}
	return p.record(node, start), nil
}

// Binary levels, lowest first. Mirrors the printer's precedence table in
// internal/nrc/print.go.
type binLevel int

const (
	precOrL binLevel = iota
	precAndL
	precCmpL
	precUnionL
	precAddL
	precMulL
)

func (p *parser) parseOr() (nrc.Expr, *Error) { return p.parseBin(precOrL) }

func (p *parser) parseBin(level binLevel) (nrc.Expr, *Error) {
	if level > precMulL {
		return p.parseUnary()
	}
	l, err := p.parseBin(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		switch level {
		case precOrL:
			if t.Kind != tOrOr {
				return l, nil
			}
		case precAndL:
			if t.Kind != tAndAnd {
				return l, nil
			}
		case precCmpL:
			op, ok := cmpOps[t.Kind]
			if !ok {
				return l, nil
			}
			p.next()
			r, err := p.parseBin(level + 1)
			if err != nil {
				return nil, err
			}
			if nxt, chained := cmpOps[p.peek().Kind]; chained {
				return nil, p.errHere("comparisons do not chain: parenthesize one side of %s", nxt)
			}
			return p.record(&nrc.Cmp{Op: op, L: l, R: r}, t.Pos), nil
		case precUnionL:
			if t.Kind != tUnion {
				return l, nil
			}
		case precAddL:
			if t.Kind != tPlus && t.Kind != tMinus {
				return l, nil
			}
		case precMulL:
			if t.Kind != tStar && t.Kind != tSlash {
				return l, nil
			}
		}
		p.next()
		r, err := p.parseBin(level + 1)
		if err != nil {
			return nil, err
		}
		switch level {
		case precOrL:
			l = p.record(&nrc.BoolBin{And: false, L: l, R: r}, t.Pos)
		case precAndL:
			l = p.record(&nrc.BoolBin{And: true, L: l, R: r}, t.Pos)
		case precUnionL:
			l = p.record(&nrc.Union{L: l, R: r}, t.Pos)
		case precAddL:
			op := nrc.Add
			if t.Kind == tMinus {
				op = nrc.Sub
			}
			l = p.record(&nrc.Arith{Op: op, L: l, R: r}, t.Pos)
		case precMulL:
			op := nrc.Mul
			if t.Kind == tSlash {
				op = nrc.Div
			}
			l = p.record(&nrc.Arith{Op: op, L: l, R: r}, t.Pos)
		}
	}
}

var cmpOps = map[tokKind]nrc.CmpOp{
	tEq: nrc.Eq, tNe: nrc.Ne, tLt: nrc.Lt, tLe: nrc.Le, tGt: nrc.Gt, tGe: nrc.Ge,
}

func (p *parser) parseUnary() (nrc.Expr, *Error) {
	p.depth++
	defer func() { p.depth-- }()
	if p.depth > maxNestingDepth {
		return nil, p.errHere("expression nests deeper than %d levels", maxNestingDepth)
	}
	if t, ok := p.accept(tBang); ok {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return p.record(&nrc.Not{E: e}, t.Pos), nil
	}
	if t, ok := p.accept(tMinus); ok {
		// Fold a minus into a numeric literal (also the only way to write
		// MinInt64); otherwise desugar -e to 0 - e.
		if lit := p.peek(); lit.Kind == tInt {
			p.next()
			u, perr := strconv.ParseUint(lit.Text, 10, 64)
			if perr != nil || u > 1<<63 {
				return nil, p.errf(lit.Pos, "integer literal -%s out of range", lit.Text)
			}
			return p.record(&nrc.Const{Val: -int64(u)}, t.Pos), nil
		}
		if lit := p.peek(); lit.Kind == tReal {
			p.next()
			f, _ := strconv.ParseFloat(lit.Text, 64)
			return p.record(&nrc.Const{Val: -f}, t.Pos), nil
		}
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		zero := p.record(&nrc.Const{Val: int64(0)}, t.Pos)
		return p.record(&nrc.Arith{Op: nrc.Sub, L: zero, R: e}, t.Pos), nil
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (nrc.Expr, *Error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t, ok := p.accept(tDot)
		if !ok {
			return e, nil
		}
		f, err := p.expectIdent("a field name after '.'")
		if err != nil {
			return nil, err
		}
		e = p.record(&nrc.Proj{Tuple: e, Field: f.Text}, t.Pos)
	}
}

func (p *parser) parsePrimary() (nrc.Expr, *Error) {
	t := p.peek()
	switch t.Kind {
	case tInt:
		p.next()
		u, err := strconv.ParseUint(t.Text, 10, 64)
		if err != nil || u > math.MaxInt64 {
			return nil, p.errf(t.Pos, "integer literal %s out of range", t.Text)
		}
		return p.record(&nrc.Const{Val: int64(u)}, t.Pos), nil
	case tReal:
		p.next()
		f, _ := strconv.ParseFloat(t.Text, 64)
		return p.record(&nrc.Const{Val: f}, t.Pos), nil
	case tString:
		p.next()
		return p.record(&nrc.Const{Val: t.Text}, t.Pos), nil
	case tTrue, tFalse:
		p.next()
		return p.record(&nrc.Const{Val: t.Kind == tTrue}, t.Pos), nil
	case tDate:
		return p.parseDate()
	case tIdent:
		p.next()
		v := &nrc.Var{Name: t.Text}
		if _, seen := p.vars[t.Text]; !seen {
			p.vars[t.Text] = v
		}
		return p.record(v, t.Pos), nil
	case tLParen:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tRParen, "to close '('"); err != nil {
			return nil, err
		}
		return e, nil
	case tLBrace:
		return p.parseBraces()
	case tGet, tDedup:
		p.next()
		e, err := p.parseCallArg(t.Text)
		if err != nil {
			return nil, err
		}
		if t.Kind == tGet {
			return p.record(&nrc.Get{Bag: e}, t.Pos), nil
		}
		return p.record(&nrc.Dedup{E: e}, t.Pos), nil
	case tEmpty:
		p.next()
		if err := p.expect(tLParen, "after 'empty'"); err != nil {
			return nil, err
		}
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tRParen, "to close 'empty('"); err != nil {
			return nil, err
		}
		return p.record(&nrc.Empty{ElemType: ty}, t.Pos), nil
	case tGroupBy:
		return p.parseGroupBy()
	case tSumBy:
		return p.parseSumBy()
	case tFor, tLet, tIf:
		return nil, p.errf(t.Pos, "'%s' cannot be an operand here: parenthesize it, e.g. (%s ...)", t.Text, t.Text)
	case tEOF:
		return nil, p.errHere("expected an expression, found end of input")
	}
	return nil, p.errHere("expected an expression, found %s", p.describeHere())
}

func (p *parser) parseCallArg(fn string) (nrc.Expr, *Error) {
	if err := p.expect(tLParen, "after '"+fn+"'"); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tRParen, "to close '"+fn+"('"); err != nil {
		return nil, err
	}
	return e, nil
}

// parseDate parses date("yyyy-mm-dd").
func (p *parser) parseDate() (nrc.Expr, *Error) {
	t := p.next() // date
	if err := p.expect(tLParen, "after 'date'"); err != nil {
		return nil, err
	}
	lit := p.peek()
	if lit.Kind != tString {
		return nil, p.errHere("date() takes a \"yyyy-mm-dd\" string literal, found %s", p.describeHere())
	}
	p.next()
	d, ok := value.ParseDate(lit.Text)
	if !ok {
		return nil, p.errf(lit.Pos, "bad date %q: want yyyy-mm-dd", lit.Text)
	}
	if err := p.expect(tRParen, "to close 'date('"); err != nil {
		return nil, err
	}
	return p.record(&nrc.Const{Val: d}, t.Pos), nil
}

// parseBraces parses the three brace forms: {} (empty tuple),
// {a := e, ...} (tuple constructor), {e} (singleton bag).
func (p *parser) parseBraces() (nrc.Expr, *Error) {
	open := p.next() // {
	if _, ok := p.accept(tRBrace); ok {
		return p.record(&nrc.TupleCtor{}, open.Pos), nil
	}
	if p.at(tIdent) && p.peekAt(1).Kind == tAssign {
		var fields []nrc.NamedExpr
		for {
			f, err := p.expectIdent("a field name")
			if err != nil {
				return nil, err
			}
			if err := p.expect(tAssign, "after the field name"); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fields = append(fields, nrc.NamedExpr{Name: f.Text, Expr: e})
			if _, ok := p.accept(tComma); !ok {
				break
			}
			if p.at(tRBrace) {
				break // trailing comma
			}
		}
		if err := p.expect(tRBrace, "to close the tuple"); err != nil {
			return nil, err
		}
		return p.record(&nrc.TupleCtor{Fields: fields}, open.Pos), nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tRBrace, "to close the singleton bag"); err != nil {
		return nil, err
	}
	return p.record(&nrc.Sing{Elem: e}, open.Pos), nil
}

func (p *parser) parseGroupBy() (nrc.Expr, *Error) {
	t := p.next() // groupby
	if err := p.expect(tLBrack, "after 'groupby'"); err != nil {
		return nil, err
	}
	keys, err := p.parseNameList(tAs, tRBrack)
	if err != nil {
		return nil, err
	}
	groupAs := "group"
	if _, ok := p.accept(tAs); ok {
		g, err := p.expectIdent("the group attribute name after 'as'")
		if err != nil {
			return nil, err
		}
		groupAs = g.Text
	}
	if err := p.expect(tRBrack, "to close 'groupby['"); err != nil {
		return nil, err
	}
	e, err := p.parseCallArg("groupby[...]")
	if err != nil {
		return nil, err
	}
	return p.record(&nrc.GroupBy{E: e, Keys: keys, GroupAs: groupAs}, t.Pos), nil
}

func (p *parser) parseSumBy() (nrc.Expr, *Error) {
	t := p.next() // sumby
	if err := p.expect(tLBrack, "after 'sumby'"); err != nil {
		return nil, err
	}
	keys, err := p.parseNameList(tSemi, tRBrack)
	if err != nil {
		return nil, err
	}
	if err := p.expect(tSemi, "separating sumby keys from values"); err != nil {
		return nil, err
	}
	values, err := p.parseNameList(tRBrack, tRBrack)
	if err != nil {
		return nil, err
	}
	if err := p.expect(tRBrack, "to close 'sumby['"); err != nil {
		return nil, err
	}
	e, err := p.parseCallArg("sumby[...]")
	if err != nil {
		return nil, err
	}
	return p.record(&nrc.SumBy{E: e, Keys: keys, Values: values}, t.Pos), nil
}

// parseNameList parses a comma-separated (possibly empty) identifier list,
// stopping before either terminator token.
func (p *parser) parseNameList(stop1, stop2 tokKind) ([]string, *Error) {
	var names []string
	if p.at(stop1) || p.at(stop2) {
		return names, nil
	}
	for {
		n, err := p.expectIdent("an attribute name")
		if err != nil {
			return nil, err
		}
		names = append(names, n.Text)
		if _, ok := p.accept(tComma); !ok {
			return names, nil
		}
	}
}

// parseType parses the surface type syntax used by empty(T):
// int | real | string | bool | date | label | bag(T) | {a: T, ...}.
func (p *parser) parseType() (nrc.Type, *Error) {
	p.depth++
	defer func() { p.depth-- }()
	if p.depth > maxNestingDepth {
		return nil, p.errHere("type nests deeper than %d levels", maxNestingDepth)
	}
	t := p.peek()
	switch t.Kind {
	case tDate:
		p.next()
		return nrc.DateT, nil
	case tIdent:
		switch t.Text {
		case "int":
			p.next()
			return nrc.IntT, nil
		case "real":
			p.next()
			return nrc.RealT, nil
		case "string":
			p.next()
			return nrc.StringT, nil
		case "bool":
			p.next()
			return nrc.BoolT, nil
		case "label":
			p.next()
			return nrc.LabelT, nil
		case "bag":
			p.next()
			if err := p.expect(tLParen, "after 'bag'"); err != nil {
				return nil, err
			}
			elem, err := p.parseType()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tRParen, "to close 'bag('"); err != nil {
				return nil, err
			}
			return nrc.BagType{Elem: elem}, nil
		}
		return nil, p.errf(t.Pos, "unknown type %q (want int, real, string, bool, date, bag(T), or {a: T, ...})", t.Text)
	case tLBrace:
		p.next()
		var fields []nrc.Field
		if _, ok := p.accept(tRBrace); ok {
			return nrc.TupleType{}, nil
		}
		for {
			f, err := p.expectIdent("a field name")
			if err != nil {
				return nil, err
			}
			if err := p.expect(tColon, "after the field name"); err != nil {
				return nil, err
			}
			ft, err := p.parseType()
			if err != nil {
				return nil, err
			}
			fields = append(fields, nrc.Field{Name: f.Text, Type: ft})
			if _, ok := p.accept(tComma); !ok {
				break
			}
		}
		if err := p.expect(tRBrace, "to close the tuple type"); err != nil {
			return nil, err
		}
		return nrc.TupleType{Fields: fields}, nil
	}
	return nil, p.errHere("expected a type, found %s", p.describeHere())
}
