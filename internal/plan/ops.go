package plan

import (
	"fmt"
	"strings"

	"github.com/trance-go/trance/internal/nrc"
)

// Column describes one output column of an operator. Columns may be
// bag-typed: the standard compilation route carries nested collections
// through the pipeline.
type Column struct {
	Name string
	Type nrc.Type
}

// Op is a plan operator.
type Op interface {
	Columns() []Column
	Children() []Op
	Describe() string
}

// AggKind selects the nest aggregate: bag union (Γ⊎) or sum (Γ+).
type AggKind int

// Nest aggregates.
const (
	AggBag AggKind = iota
	AggSum
)

// NestMode controls the NULL-casting behaviour of Γ (see DESIGN.md):
// structural nests (from tuple-constructor nesting) always keep their group;
// explicit nests (from sumBy/groupBy) emit NULL marker rows below the root
// and drop pure-phantom groups at the root.
type NestMode int

// Nest modes.
const (
	Structural NestMode = iota
	ExplicitNested
	ExplicitRoot
)

func (m NestMode) String() string {
	return [...]string{"structural", "explicit", "explicit-root"}[m]
}

// Scan reads a named input (a base relation, a shredded input dictionary, or
// the result of a prior assignment).
type Scan struct {
	Input string
	Cols  []Column
	// Placed, when non-nil, lists the keys the input's rows lie hash-placed
	// on, each a list of columns (PlaceOptions.Bound). Only Place sets it.
	Placed [][]int
}

func (s *Scan) Columns() []Column { return s.Cols }
func (s *Scan) Children() []Op    { return nil }
func (s *Scan) Describe() string {
	if s.Placed == nil {
		return "Scan " + s.Input
	}
	keys := make([]string, len(s.Placed))
	for i, k := range s.Placed {
		keys[i] = colNames(s.Cols, k)
	}
	return "Scan " + s.Input + " [placed on " + strings.Join(keys, ",") + "]"
}

// Values is an inline literal relation (used for constant queries).
type Values struct {
	Cols []Column
	Rows []Row
}

func (v *Values) Columns() []Column { return v.Cols }
func (v *Values) Children() []Op    { return nil }
func (v *Values) Describe() string  { return fmt.Sprintf("Values(%d rows)", len(v.Rows)) }

// Select filters rows. With NullifyCols set, rows failing the predicate are
// kept but their NullifyCols are set to NULL: the outer-level-preserving
// selection used below the root so outer tuples survive with empty inner
// collections.
type Select struct {
	In          Op
	Pred        Expr
	NullifyCols []int
}

func (s *Select) Columns() []Column { return columnsOf(s, Op.Columns) }
func (s *Select) Children() []Op    { return []Op{s.In} }
func (s *Select) Describe() string {
	if s.NullifyCols != nil {
		return fmt.Sprintf("σ̄ %s (nullify %v)", s.Pred, s.NullifyCols)
	}
	return fmt.Sprintf("σ %s", s.Pred)
}

// Extend appends computed columns, keeping all input columns in place.
type Extend struct {
	In    Op
	Exprs []NamedExpr
}

func (e *Extend) Columns() []Column { return columnsOf(e, Op.Columns) }
func (e *Extend) Children() []Op    { return []Op{e.In} }
func (e *Extend) Describe() string  { return "ext " + namedExprString(e.Exprs) }

// Project replaces the schema with the given output expressions. CastBags
// additionally converts NULL bag-typed outputs to empty bags — applied at the
// root of a query (the final NULL cast of the Γ machinery).
type Project struct {
	In       Op
	Outs     []NamedExpr
	CastBags bool
}

func (p *Project) Columns() []Column { return columnsOf(p, Op.Columns) }
func (p *Project) Children() []Op    { return []Op{p.In} }
func (p *Project) Describe() string  { return "π " + namedExprString(p.Outs) }

// AddIndex appends a column holding an ID unique across the dataset — the
// unique-ID insertion the outer operators of the paper perform before
// entering a nesting level.
type AddIndex struct {
	In   Op
	Name string
}

func (a *AddIndex) Columns() []Column { return columnsOf(a, Op.Columns) }
func (a *AddIndex) Children() []Op    { return []Op{a.In} }
func (a *AddIndex) Describe() string  { return "addIndex " + a.Name }

// Unnest is μ^a / outer-unnest μ̄^a: it pairs each input row with each
// element of its bag column, appending the element's fields (prefixed with
// Prefix). The bag column itself is tombstoned (set to NULL) in the output,
// mirroring the paper's projection of the unnested attribute. Outer unnest
// emits one NULL-extended row for an empty or NULL bag.
type Unnest struct {
	In     Op
	BagCol int
	Prefix string
	Outer  bool
	// Outs, when non-nil, lists the columns the operator writes, in output
	// order, as positions of the full layout (the input columns followed by
	// the element fields). Prune fills it from what the operators above read,
	// so a flattened row is built once at its final width; nil writes the
	// full layout.
	Outs []int
}

// elemFields returns the element fields of the unnested bag column, given
// the input's columns.
func (u *Unnest) elemFields(in []Column) []nrc.Field {
	bt := in[u.BagCol].Type.(nrc.BagType)
	if tt, ok := bt.Elem.(nrc.TupleType); ok {
		return tt.Fields
	}
	return []nrc.Field{{Name: "_value", Type: bt.Elem}}
}

// Full returns the position in the full layout of output column i.
func (u *Unnest) Full(i int) int {
	if u.Outs == nil {
		return i
	}
	return u.Outs[i]
}

func (u *Unnest) Columns() []Column { return columnsOf(u, Op.Columns) }
func (u *Unnest) Children() []Op    { return []Op{u.In} }
func (u *Unnest) Describe() string {
	sym := "μ"
	if u.Outer {
		sym = "μ̄"
	}
	s := fmt.Sprintf("%s $%d as %s", sym, u.BagCol, u.Prefix)
	if u.Outs != nil {
		s += fmt.Sprintf(" out%v", u.Outs)
	}
	return s
}

// Join is an equi-join (⋈) or left outer join (⧑) on column equality. Output
// rows are left columns followed by right columns.
type Join struct {
	L, R         Op
	LCols, RCols []int
	Outer        bool
	// Outs, when non-nil, is the projection the probe writes in place of
	// L ++ R: expressions over that layout (an unmatched outer row has NULL
	// right columns). Empty and non-nil is a projection to no columns. Only
	// Fuse sets it, from the π directly above the join.
	Outs []NamedExpr
	// Cost, when set, is the cost model's annotation (see Annotate): the
	// executor honors Cost.Method instead of its runtime size heuristic, and
	// Explain renders the estimate.
	Cost *Costs
	// Placed records, per side (L, R), that the side's rows already lie
	// hash-placed on its key, so a shuffle join skips that side's exchange.
	// KeepSplit records, under skew, that the left side was split on its heavy
	// keys over LCols already, so the skew join reuses that split instead of
	// sampling again. Only Place sets them.
	Placed    [2]bool
	KeepSplit bool
}

func (j *Join) Columns() []Column { return columnsOf(j, Op.Columns) }
func (j *Join) Children() []Op    { return []Op{j.L, j.R} }
func (j *Join) Describe() string {
	sym := "⋈"
	if j.Outer {
		sym = "⟕"
	}
	s := fmt.Sprintf("%s L%v=R%v", sym, j.LCols, j.RCols)
	if j.Outs != nil {
		s += " out[" + namedExprString(j.Outs) + "]"
	}
	if j.Cost != nil {
		s += j.Cost.describe()
	}
	return s + j.placedMark() + mark(j.KeepSplit, "split kept")
}

// MovesNothing reports that both sides of j lie placed on its key, heavy
// rows included (no split kept under skew): each partition joins its own
// rows, which no broadcast or skew split could improve on.
func (j *Join) MovesNothing() bool { return j.Placed == [2]bool{true, true} && !j.KeepSplit }

// placedMark renders Placed: the sides that skip their exchange.
func (j *Join) placedMark() string {
	sides := map[[2]bool]string{{true, false}: "L", {false, true}: "R", {true, true}: "L R"}[j.Placed]
	return mark(sides != "", sides+" placed")
}

// mark renders a decision Place took as " [text]".
func mark(taken bool, text string) string {
	if taken {
		return " [" + text + "]"
	}
	return ""
}

// Nest is Γ^{agg value}_{key}: a key-based reduce (paper Section 2). Rows are
// grouped by GroupCols; ValueCols form the contribution of each row — a
// collected element for Γ⊎, summands for Γ+. CarryCols are columns
// functionally determined by the group key (previously built inner bags, and
// the outer attributes an AddIndex ID in the key determines — see Prune)
// passed through from the first row of each group. GDepth marks how many of
// GroupCols form the outer grouping prefix G (used by explicit modes).
//
// NULL casting: a row whose ValueCols are all NULL contributes nothing.
// Structural nests always emit their group; a group with no contributions
// yields a NULL bag (cast to empty downstream). Explicit nests below the root
// emit a NULL marker row for groups that exist only to keep outer tuples
// alive; at the root such groups are dropped.
//
// Output layout: GroupCols ++ CarryCols ++ aggregate column(s).
type Nest struct {
	In        Op
	GroupCols []int
	GDepth    int
	CarryCols []int
	ValueCols []int
	// PresenceCols determine phantom rows: a row is phantom when any of
	// these columns is NULL (an outer join or outer unnest missed, or an
	// outer-preserving selection nullified the level). Empty means every row
	// is a real contribution.
	PresenceCols []int
	Agg          AggKind
	Mode         NestMode
	OutName      string // bag column name for AggBag
	ScalarElem   bool   // AggBag collects raw scalars instead of tuples
	// Local, when non-nil, lists input columns that are co-located (rows equal
	// on them share a partition) and that the key determines, so every group
	// already lies in one partition and Γ reduces in place, with no exchange.
	// Only Place sets it.
	Local []int
	// Combine: each source partition folds its own rows of a group into one
	// partial row before the exchange, which ships the partials (a
	// map-side combiner). Place sets it on an exchanged Γ+, never on Γ⊎.
	Combine bool
}

// elemType returns the element type of the collected bag (AggBag only),
// given the input's columns.
func (n *Nest) elemType(in []Column) nrc.Type {
	if n.ScalarElem {
		return in[n.ValueCols[0]].Type
	}
	fs := make([]nrc.Field, len(n.ValueCols))
	for i, c := range n.ValueCols {
		fs[i] = nrc.Field{Name: in[c].Name, Type: in[c].Type}
	}
	return nrc.TupleType{Fields: fs}
}

// passed returns the input columns the output starts with: GroupCols ++
// CarryCols, each constant within a group.
func (n *Nest) passed() []int {
	return append(append([]int{}, n.GroupCols...), n.CarryCols...)
}

func (n *Nest) Columns() []Column { return columnsOf(n, Op.Columns) }
func (n *Nest) Children() []Op    { return []Op{n.In} }
func (n *Nest) Describe() string {
	agg := "⊎"
	if n.Agg == AggSum {
		agg = "+"
	}
	return fmt.Sprintf("Γ%s key%v carry%v val%v (%s)", agg, n.GroupCols, n.CarryCols, n.ValueCols, n.Mode) + localMark(n.In, n.Local) + combinedMark(n.Combine)
}

// DedupOp removes duplicate rows of a flat bag.
type DedupOp struct {
	In Op
	// Local is Nest.Local for the whole-row key.
	Local []int
	// Combine is Nest.Combine: each source partition drops its own
	// duplicates before the exchange.
	Combine bool
}

func (d *DedupOp) Columns() []Column { return columnsOf(d, Op.Columns) }
func (d *DedupOp) Children() []Op    { return []Op{d.In} }
func (d *DedupOp) Describe() string {
	return "dedup" + localMark(d.In, d.Local) + combinedMark(d.Combine)
}

// combinedMark renders a Combine mark.
func combinedMark(combine bool) string {
	if combine {
		return " [combined]"
	}
	return ""
}

// localMark renders a Local column list by the names of in's columns.
func localMark(in Op, local []int) string {
	if local == nil {
		return ""
	}
	return colsMark(in.Columns(), local, "local on")
}

// colsMark renders " [what <names>]" for the columns at positions of cols,
// "" for none.
func colsMark(cols []Column, positions []int, what string) string {
	if positions == nil {
		return ""
	}
	return " [" + what + " " + colNames(cols, positions) + "]"
}

// colNames names the columns at positions, space-separated.
func colNames(cols []Column, positions []int) string {
	names := make([]string, len(positions))
	for i, c := range positions {
		names[i] = cols[c].Name
	}
	return strings.Join(names, " ")
}

// UnionAll is additive bag union of two inputs with identical schemas.
type UnionAll struct{ L, R Op }

func (u *UnionAll) Columns() []Column { return columnsOf(u, Op.Columns) }
func (u *UnionAll) Children() []Op    { return []Op{u.L, u.R} }
func (u *UnionAll) Describe() string  { return "⊎" }

// BagToDict casts a flat bag with a label column to a dictionary: the
// executor repartitions by the label, establishing the label-based
// partitioning guarantee of dictionaries (paper Section 4). The skew-aware
// variant repartitions only light labels (paper Figure 6).
type BagToDict struct {
	In       Op
	LabelCol int
	// Placed and KeepSplit are Join's, for the label.
	Placed, KeepSplit bool
}

func (b *BagToDict) Columns() []Column { return columnsOf(b, Op.Columns) }
func (b *BagToDict) Children() []Op    { return []Op{b.In} }
func (b *BagToDict) Describe() string {
	return fmt.Sprintf("bagToDict $%d", b.LabelCol) + mark(b.Placed, "placed") + mark(b.KeepSplit, "split kept")
}

// columnsOf is op's output schema given its inputs' schemas, which in
// returns: the one definition behind every operator's Columns, which asks
// each input anew, and behind a pass's memo of them (Schemas), which asks
// each node once.
func columnsOf(op Op, in func(Op) []Column) []Column {
	switch x := op.(type) {
	case *Scan:
		return x.Cols
	case *IndexScan:
		return x.Cols
	case *Values:
		return x.Cols
	case *Select:
		return in(x.In)
	case *DedupOp:
		return in(x.In)
	case *BagToDict:
		return in(x.In)
	case *UnionAll:
		return in(x.L)
	case *Extend:
		cols := in(x.In)
		out := make([]Column, 0, len(cols)+len(x.Exprs))
		out = append(out, cols...)
		for _, ne := range x.Exprs {
			out = append(out, Column{Name: ne.Name, Type: ne.Expr.Type()})
		}
		return out
	case *Project:
		return namedColumns(x.Outs)
	case *AddIndex:
		cols := in(x.In)
		return append(append(make([]Column, 0, len(cols)+1), cols...), Column{Name: x.Name, Type: nrc.IntT})
	case *Unnest:
		cols := in(x.In)
		fields := x.elemFields(cols)
		full := make([]Column, 0, len(cols)+len(fields))
		full = append(full, cols...)
		for _, f := range fields {
			full = append(full, Column{Name: x.Prefix + "." + f.Name, Type: f.Type})
		}
		if x.Outs == nil {
			return full
		}
		out := make([]Column, len(x.Outs))
		for i, c := range x.Outs {
			out[i] = full[c]
		}
		return out
	case *Join:
		if x.Outs != nil {
			return namedColumns(x.Outs)
		}
		l, r := in(x.L), in(x.R)
		return append(append(make([]Column, 0, len(l)+len(r)), l...), r...)
	case *Nest:
		cols := in(x.In)
		out := make([]Column, 0, len(x.GroupCols)+len(x.CarryCols)+len(x.ValueCols))
		for _, c := range x.GroupCols {
			out = append(out, cols[c])
		}
		for _, c := range x.CarryCols {
			out = append(out, cols[c])
		}
		if x.Agg == AggBag {
			return append(out, Column{Name: x.OutName, Type: nrc.BagType{Elem: x.elemType(cols)}})
		}
		for _, c := range x.ValueCols {
			out = append(out, cols[c])
		}
		return out
	}
	panic(fmt.Sprintf("plan: columns of operator %T", op))
}

// namedColumns is the schema a projection to outs writes.
func namedColumns(outs []NamedExpr) []Column {
	out := make([]Column, len(outs))
	for i, ne := range outs {
		out[i] = Column{Name: ne.Name, Type: ne.Expr.Type()}
	}
	return out
}

// Schemas is one pass's memo of the operators' columns and ID dependencies
// (idDepsOf): each node's are computed once, from its inputs' memoized ones.
// Plan nodes are immutable, so neither ever changes; a pass that builds nodes
// adds them as it asks for them — this package's passes, and the unnesting
// compiler's. A memoized slice is shared: no caller writes or appends to it.
type Schemas map[Op]derived

// derived is a node's columns and, once asked for, its ID dependencies.
type derived struct {
	cols []Column
	deps idDeps
}

// Of returns op's columns.
func (s Schemas) Of(op Op) []Column { return s.node(op).cols }

// node returns op's memo entry, deriving its columns on first use.
func (s Schemas) node(op Op) derived {
	if d, ok := s[op]; ok {
		return d
	}
	d := derived{cols: columnsOf(op, s.Of)}
	s[op] = d
	return d
}

// withChildren returns a copy of op over the given inputs (in Children
// order), every other field kept. It and cloneWith are the one place that
// rebuilds an operator, so a pass that rewrites some fields of a node keeps
// those that other passes own, whatever order the passes run in.
func withChildren(op Op, ch ...Op) Op {
	switch x := op.(type) {
	case *Select:
		return cloneWith(x, func(c *Select) { c.In = ch[0] })
	case *Extend:
		return cloneWith(x, func(c *Extend) { c.In = ch[0] })
	case *Project:
		return cloneWith(x, func(c *Project) { c.In = ch[0] })
	case *AddIndex:
		return cloneWith(x, func(c *AddIndex) { c.In = ch[0] })
	case *Unnest:
		return cloneWith(x, func(c *Unnest) { c.In = ch[0] })
	case *Join:
		return cloneWith(x, func(c *Join) { c.L, c.R = ch[0], ch[1] })
	case *Nest:
		return cloneWith(x, func(c *Nest) { c.In = ch[0] })
	case *DedupOp:
		return cloneWith(x, func(c *DedupOp) { c.In = ch[0] })
	case *UnionAll:
		return &UnionAll{L: ch[0], R: ch[1]}
	case *BagToDict:
		return cloneWith(x, func(c *BagToDict) { c.In = ch[0] })
	}
	panic(fmt.Sprintf("plan: rebuild of operator %T", op))
}

// cloneWith returns a copy of *x with set applied to it.
func cloneWith[T any](x *T, set func(*T)) *T {
	c := *x
	set(&c)
	return &c
}

// Explain renders the plan as an indented tree with output column lists: the
// ExplainAnalyzed rendering of a run that measured nothing.
func Explain(op Op) string { return ExplainAnalyzed(op, nil, nil, nil) }
