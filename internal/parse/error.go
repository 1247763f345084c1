// Package parse implements the textual NRC+ surface language: a hand-written
// lexer and recursive-descent parser producing internal/nrc ASTs, with
// position-tracked caret diagnostics for lexical, syntactic, and (via
// nrc.ExprError and the parse result's position map) type errors.
//
// The grammar, the operator precedence table, and worked examples are
// documented in docs/QUERYLANG.md. The canonical printed form of an AST
// (nrc.Print) re-parses to a structurally identical AST; fuzz targets in
// this package enforce both that round trip and the absence of panics on
// arbitrary input.
package parse

import (
	"errors"
	"fmt"
	"strings"

	"github.com/trance-go/trance/internal/nrc"
)

// Pos is a position in the query text. Line and Col are 1-based; Col counts
// bytes from the start of the line (tabs count as one column).
type Pos struct {
	Offset int
	Line   int
	Col    int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Error is a positioned lex/parse/diagnosed-type error. Its Error string is
// a multi-line caret diagnostic quoting the offending source line:
//
//	3:14: expected 'in' after the loop variable of 'for'
//	  3 | for x In X union
//	    |       ^
type Error struct {
	Pos Pos
	Msg string
	src string
}

func (e *Error) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %s", e.Pos, e.Msg)
	line, ok := sourceLine(e.src, e.Pos.Line)
	if !ok {
		return sb.String()
	}
	prefix := fmt.Sprintf("  %d | ", e.Pos.Line)
	fmt.Fprintf(&sb, "\n%s%s\n", prefix, line)
	sb.WriteString(strings.Repeat(" ", len(fmt.Sprintf("  %d ", e.Pos.Line))))
	sb.WriteString("| ")
	// Reproduce tabs so the caret lines up under the offending column.
	for i := 0; i < e.Pos.Col-1 && i < len(line); i++ {
		if line[i] == '\t' {
			sb.WriteByte('\t')
		} else {
			sb.WriteByte(' ')
		}
	}
	sb.WriteString("^")
	return sb.String()
}

// sourceLine returns 1-based line n of src.
func sourceLine(src string, n int) (string, bool) {
	if n < 1 {
		return "", false
	}
	lines := strings.Split(src, "\n")
	if n > len(lines) {
		return "", false
	}
	return lines[n-1], true
}

// source carries the query text and the node position map shared by Result
// and ProgramResult.
type Source struct {
	src  string
	pos  map[nrc.Expr]Pos
	vars map[string]nrc.Expr // first Var node per name, for dataset errors
}

// Pos returns the start position of a parsed node.
func (s *Source) Pos(e nrc.Expr) (Pos, bool) {
	p, ok := s.pos[e]
	return p, ok
}

// FirstVar returns the first occurrence of a variable named name, so layers
// resolving free variables (the catalog) can point at the reference that
// failed to resolve.
func (s *Source) FirstVar(name string) (nrc.Expr, bool) {
	v, ok := s.vars[name]
	return v, ok
}

// ErrorAt builds a caret diagnostic anchored at node (which must come from
// this parse); when the node is unknown the message is returned unadorned.
func (s *Source) ErrorAt(node nrc.Expr, msg string) error {
	if p, ok := s.pos[node]; ok {
		return &Error{Pos: p, Msg: msg, src: s.src}
	}
	return errors.New(msg)
}

// Diagnose upgrades an error that carries an nrc.ExprError for a node of
// this parse into a positioned caret diagnostic; anything else (including
// nil and errors that already are *Error) passes through unchanged. Wrap the
// errors of nrc.Check — or of any API built on it, such as Session.Prepare —
// with it to point type errors at the query text.
func (s *Source) Diagnose(err error) error {
	if err == nil {
		return nil
	}
	var pe *Error
	if errors.As(err, &pe) {
		return err
	}
	var xe *nrc.ExprError
	if errors.As(err, &xe) {
		if p, ok := s.pos[xe.Node]; ok {
			return &Error{Pos: p, Msg: err.Error(), src: s.src}
		}
	}
	return err
}
