package plan

import (
	"reflect"
	"strings"
	"testing"

	"github.com/trance-go/trance/internal/nrc"
)

// numbered is addIndex over R(a, b, xs): columns a, b, xs, _id.
func numbered() *AddIndex {
	bag := nrc.BagType{Elem: nrc.TupleType{Fields: []nrc.Field{{Name: "v", Type: nrc.IntT}}}}
	scan := &Scan{Input: "R", Cols: []Column{
		{Name: "a", Type: nrc.IntT}, {Name: "b", Type: nrc.IntT}, {Name: "xs", Type: bag},
	}}
	return &AddIndex{In: scan, Name: "_id"}
}

// flattened is μ̄ over numbered: columns a, b, xs, _id, x.v.
func flattened() *Unnest {
	return &Unnest{In: numbered(), BagCol: 2, Prefix: "x", Outer: true}
}

func copies(in Op, cols ...int) *Project {
	outs := make([]NamedExpr, len(cols))
	for i, c := range cols {
		outs[i] = NamedExpr{Name: in.Columns()[c].Name, Expr: col(in, c)}
	}
	return &Project{In: in, Outs: outs}
}

func TestIDDeps(t *testing.T) {
	id := []int{3}
	un := flattened()
	cases := []struct {
		name string
		op   Op
		want idDeps
	}{
		{"addIndex determines the row it numbered", numbered(),
			idDeps{id, id, id, id}},
		{"μ̄ keeps pass-through columns, tombstone included; element fields are free", un,
			idDeps{id, id, id, id, nil}},
		{"μ̄ writing a column list follows it", &Unnest{In: numbered(), BagCol: 2, Prefix: "x", Outer: true, Outs: []int{0, 3, 4}},
			idDeps{{1}, {1}, nil}},
		{"μ̄ not writing the ID clears its dependents", &Unnest{In: numbered(), BagCol: 2, Prefix: "x", Outs: []int{0, 1, 4}},
			idDeps{nil, nil, nil}},
		{"σ keeps everything", sel(un, gt(col(un, 4), 0)),
			idDeps{id, id, id, id, nil}},
		{"σ̄ clears the column it nullifies, its neighbours keep theirs",
			&Select{In: un, Pred: gt(col(un, 4), 0), NullifyCols: []int{1, 4}},
			idDeps{id, nil, id, id, nil}},
		{"σ̄ nullifying the ID clears its dependents",
			&Select{In: un, Pred: gt(col(un, 4), 0), NullifyCols: []int{3}},
			idDeps{nil, nil, nil, nil, nil}},
		{"a computed column is free", &Extend{In: un, Exprs: []NamedExpr{{Name: "c", Expr: col(un, 0)}}},
			idDeps{id, id, id, id, nil, nil}},
		{"π dropping the ID clears its dependents", copies(un, 0, 1),
			idDeps{nil, nil}},
		{"π copying the ID twice keeps them, on both copies", copies(un, 0, 3, 3),
			idDeps{{1, 2}, {1, 2}, {1, 2}}},
		{"⊎ clears everything", &UnionAll{L: numbered(), R: numbered()},
			idDeps{nil, nil, nil, nil}},
		{"the left of ⟕ keeps, nothing on the right is dependent",
			&Join{L: numbered(), R: numbered(), LCols: []int{0}, RCols: []int{0}, Outer: true},
			idDeps{id, id, id, id, nil, nil, nil, nil}},
		{"Γ⊎ output inherits for group and carry columns, never for the aggregate",
			&Nest{In: un, GroupCols: []int{3, 1}, CarryCols: []int{0}, ValueCols: []int{4}, Agg: AggBag, OutName: "vs"},
			idDeps{{0}, {0}, {0}, nil}},
		{"Γ+ likewise, per summed column",
			&Nest{In: un, GroupCols: []int{1}, CarryCols: []int{3}, ValueCols: []int{4, 0}, Agg: AggSum},
			idDeps{{1}, {1}, nil, nil}},
		{"dedup and bagToDict keep", &BagToDict{In: &DedupOp{In: numbered()}, LabelCol: 0},
			idDeps{id, id, id, id}},
	}
	for _, c := range cases {
		got := idDepsOf(c.op, Schemas{})
		if len(got) != len(c.op.Columns()) {
			t.Errorf("%s: %d entries for %d columns", c.name, len(got), len(c.op.Columns()))
			continue
		}
		for i := range got {
			if len(got[i]) == 0 && len(c.want[i]) == 0 {
				continue
			}
			if !reflect.DeepEqual(got[i], c.want[i]) {
				t.Errorf("%s: column %d determined by %v, want %v", c.name, i, got[i], c.want[i])
			}
		}
	}
}

// TestPruneKeysNestByID: grouping columns an ID in the key determines leave
// the key — carried when the parent reads them, dropped when not — and GDepth,
// the output positions and μ's column list follow.
func TestPruneKeysNestByID(t *testing.T) {
	un := flattened()
	nest := &Nest{In: un, GroupCols: []int{0, 1, 3, 4}, GDepth: 3, ValueCols: []int{4}, Agg: AggSum, Mode: ExplicitNested}
	// Above Γ: (a, b, _id, x.v, Σx.v); the parent reads b and the sum.
	top := copies(nest, 1, 4)
	out := Prune(top).(*Project)
	n, ok := out.In.(*Nest)
	if !ok {
		t.Fatalf("want π over Γ:\n%s", Explain(out))
	}
	// μ̄ writes (b, _id, x.v); the key is (_id, x.v), b is carried, a is gone.
	if got := Explain(n.In); !strings.HasPrefix(got, "μ̄ $2 as x out[1 3 4]") {
		t.Fatalf("μ̄ should write only b, _id and x.v:\n%s", Explain(out))
	}
	if !reflect.DeepEqual(n.GroupCols, []int{1, 2}) || !reflect.DeepEqual(n.CarryCols, []int{0}) || n.GDepth != 1 {
		t.Fatalf("key %v carry %v depth %d, want [1 2] [0] 1:\n%s", n.GroupCols, n.CarryCols, n.GDepth, Explain(out))
	}
	if got := namedExprString(out.Outs); got != "b=$2:b, x.v=$3:x.v" {
		t.Fatalf("π over the narrowed Γ reads %s", got)
	}

	// Of two copies of an ID in the key, one stays.
	twice := copies(numbered(), 3, 3, 0)
	dup := &Nest{In: twice, GroupCols: []int{0, 1, 2}, GDepth: 3, ValueCols: []int{2}, Agg: AggBag, ScalarElem: true, OutName: "as"}
	pn := Prune(dup).(*Project).In.(*Nest)
	if len(pn.GroupCols) != 1 || len(pn.CarryCols) != 2 {
		t.Fatalf("key %v carry %v, want one ID in the key and two carries:\n%s", pn.GroupCols, pn.CarryCols, Explain(pn))
	}

	// The root of a plan and the inputs of ⊎ keep their layout.
	if got, want := Prune(dup).Columns(), dup.Columns(); !reflect.DeepEqual(got, want) {
		t.Fatalf("pruned root columns %v, want %v", got, want)
	}
	u := Prune(&UnionAll{L: dup, R: dup}).(*UnionAll)
	if got, want := u.L.Columns(), dup.Columns(); !reflect.DeepEqual(got, want) {
		t.Fatalf("pruned ⊎ input columns %v, want %v", got, want)
	}

	// Without an ID in the key nothing moves.
	plain := &Nest{In: un, GroupCols: []int{0, 1}, GDepth: 2, ValueCols: []int{4}, Agg: AggSum, Mode: ExplicitRoot}
	if pn := Prune(plain).(*Nest); !reflect.DeepEqual(pn.GroupCols, []int{0, 1}) || len(pn.CarryCols) != 0 {
		t.Fatalf("key %v carry %v, want the key untouched", pn.GroupCols, pn.CarryCols)
	}
}
