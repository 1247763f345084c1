package nrc_test

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/trance-go/trance/internal/nrc"
)

// everyKind holds one instance of every NRC term kind (ast.go), plus the
// childless shapes of the kinds that may have children: an If without Else,
// an empty tuple and a label capturing nothing.
func everyKind() []nrc.Expr {
	x, y := nrc.V("x"), nrc.V("y")
	typed := nrc.V("t")
	nrc.SetType(typed, nrc.IntT)
	return []nrc.Expr{
		nrc.C(int64(1)),
		typed,
		nrc.P(x, "a"),
		nrc.Record("a", x, "b", nrc.C("s")),
		&nrc.TupleCtor{},
		nrc.SingOf(x),
		nrc.EmptyOf(nrc.IntT),
		nrc.GetOf(x),
		nrc.ForIn("x", y, nrc.SingOf(x)),
		nrc.UnionOf(x, y),
		nrc.LetIn("x", y, nrc.SingOf(x)),
		nrc.IfElse(nrc.EqOf(x, y), nrc.SingOf(x), nrc.SingOf(y)),
		nrc.IfThen(nrc.EqOf(x, y), nrc.SingOf(x)),
		nrc.LtOf(x, y),
		nrc.AddOf(x, y),
		nrc.NotOf(x),
		nrc.AndOf(x, y),
		nrc.DedupOf(x),
		nrc.GroupByOf(x, "a"),
		nrc.SumByOf(x, []string{"a"}, []string{"b"}),
		&nrc.NewLabel{Site: 3, Capture: []nrc.NamedExpr{{Name: "x_a", Expr: nrc.P(x, "a")}}},
		&nrc.NewLabel{Site: 4},
		&nrc.MatchLabel{Label: y, Site: 3, Params: []string{"x"}, ParamTypes: []nrc.Type{nrc.IntT}, Body: nrc.SingOf(x)},
		&nrc.Lambda{Param: "x", Body: nrc.SingOf(x)},
		&nrc.Lookup{Dict: x, Label: y},
		nrc.MatLookupOf(x, y),
	}
}

// nodes adds every node of e to seen, reached through nrc.Children, and
// returns the number of visits (a node reached twice counts twice).
func nodes(e nrc.Expr, seen map[nrc.Expr]bool) int {
	seen[e] = true
	n := 1
	for _, c := range nrc.Children(e) {
		n += nodes(c, seen)
	}
	return n
}

// TestCopySharesNoNode: Copy of every term kind deep-equals its input (stored
// types included) and shares no node with it, so a later rewrite or re-Check
// of the copy never reaches the original. The child map hands unchanged
// childless terms back as they are; Copy must not.
func TestCopySharesNoNode(t *testing.T) {
	kinds := map[string]bool{}
	for _, e := range everyKind() {
		kinds[fmt.Sprintf("%T", e)] = true
		cp := nrc.Copy(e)
		if !reflect.DeepEqual(cp, e) {
			t.Errorf("Copy(%s) = %s, not equal", nrc.Print(e), nrc.Print(cp))
		}
		orig, copied := map[nrc.Expr]bool{}, map[nrc.Expr]bool{}
		n, m := nodes(e, orig), nodes(cp, copied)
		for node := range copied {
			if orig[node] {
				t.Errorf("Copy(%s) shares its %T node with the input", nrc.Print(e), node)
			}
		}
		if m != n || len(copied) != m {
			t.Errorf("Copy(%s) reaches %d nodes (%d distinct), the input %d", nrc.Print(e), m, len(copied), n)
		}
		if same := nrc.MapChildren(e, func(c nrc.Expr) nrc.Expr { return c }); same != e {
			t.Errorf("the identity child map rebuilt %s", nrc.Print(e))
		}
	}
	if len(kinds) != 23 {
		t.Fatalf("the table covers %d term kinds, want all 23: %v", len(kinds), kinds)
	}
}

// TestBindersShadow: Substitute and FreeVars treat every binder alike — a
// for or let body binds its variable, a match-label body its params and a λ
// body its param — while the binder's other children see the outer scope.
func TestBindersShadow(t *testing.T) {
	x, y, z := nrc.V("x"), nrc.V("y"), nrc.V("z")
	subst := map[string]nrc.Expr{"x": nrc.C(int64(1)), "y": nrc.C(int64(2)), "z": nrc.V("w")}
	for _, tc := range []struct {
		e, want nrc.Expr
		free    []string
	}{{
		e:    nrc.ForIn("x", x, nrc.SingOf(nrc.AddOf(x, y))),
		want: nrc.ForIn("x", nrc.C(int64(1)), nrc.SingOf(nrc.AddOf(x, nrc.C(int64(2))))),
		free: []string{"x", "y"},
	}, {
		e:    nrc.LetIn("x", z, nrc.SingOf(nrc.AddOf(x, y))),
		want: nrc.LetIn("x", nrc.V("w"), nrc.SingOf(nrc.AddOf(x, nrc.C(int64(2))))),
		free: []string{"y", "z"},
	}, {
		e: &nrc.MatchLabel{Label: z, Site: 1, Params: []string{"x", "y"}, ParamTypes: []nrc.Type{nrc.IntT, nrc.IntT},
			Body: nrc.SingOf(nrc.AddOf(x, nrc.AddOf(y, z)))},
		want: &nrc.MatchLabel{Label: nrc.V("w"), Site: 1, Params: []string{"x", "y"}, ParamTypes: []nrc.Type{nrc.IntT, nrc.IntT},
			Body: nrc.SingOf(nrc.AddOf(x, nrc.AddOf(y, nrc.V("w"))))},
		free: []string{"z"},
	}, {
		e:    &nrc.Lambda{Param: "x", Body: nrc.SingOf(nrc.AddOf(x, y))},
		want: &nrc.Lambda{Param: "x", Body: nrc.SingOf(nrc.AddOf(x, nrc.C(int64(2))))},
		free: []string{"y"},
	}} {
		if got := nrc.Substitute(tc.e, subst); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Substitute(%s) = %s, want %s", nrc.Print(tc.e), nrc.Print(got), nrc.Print(tc.want))
		}
		fv := nrc.FreeVars(tc.e)
		want := map[string]bool{}
		for _, v := range tc.free {
			want[v] = true
		}
		if !reflect.DeepEqual(fv, want) {
			t.Errorf("FreeVars(%s) = %v, want %v", nrc.Print(tc.e), fv, want)
		}
	}
}
