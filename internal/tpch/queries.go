package tpch

import (
	"fmt"

	"github.com/trance-go/trance/internal/nrc"
)

// QueryClass selects one of the paper's three suites.
type QueryClass int

// The three query classes of the micro-benchmark.
const (
	FlatToNested QueryClass = iota
	NestedToNested
	NestedToFlat
)

func (c QueryClass) String() string {
	return [...]string{"flat-to-nested", "nested-to-nested", "nested-to-flat"}[c]
}

// record builds a tuple constructor copying the given attributes of variable
// v, followed by extra fields.
func record(v string, attrs []string, extra ...nrc.NamedExpr) *nrc.TupleCtor {
	fields := make([]nrc.NamedExpr, 0, len(attrs)+len(extra))
	for _, a := range attrs {
		fields = append(fields, nrc.NamedExpr{Name: a, Expr: nrc.P(nrc.V(v), a)})
	}
	fields = append(fields, extra...)
	return &nrc.TupleCtor{Fields: fields}
}

// FlatToNestedQuery groups the flat relations into the level-deep hierarchy.
// Level 0 projects Lineitem.
func FlatToNestedQuery(level int, wide bool) nrc.Expr {
	if level == 0 {
		return nrc.ForIn("l", nrc.V("Lineitem"), nrc.SingOf(record("l", leafFields(wide))))
	}
	// Construct recursively: head(lvl) is the singleton for one unit at lvl.
	var head func(lvl int) func(v string) nrc.Expr
	head = func(lvl int) func(v string) nrc.Expr {
		u := hierarchy[lvl]
		return func(v string) nrc.Expr {
			var bag nrc.Expr
			if lvl == 1 {
				bag = nrc.ForIn("li", nrc.V("Lineitem"),
					nrc.IfThen(nrc.EqOf(nrc.P(nrc.V("li"), u.childFK), nrc.P(nrc.V(v), u.key)),
						nrc.SingOf(record("li", leafFields(wide)))))
			} else {
				cu := hierarchy[lvl-1]
				cv := varFor(lvl - 1)
				bag = nrc.ForIn(cv, nrc.V(cu.table),
					nrc.IfThen(nrc.EqOf(nrc.P(nrc.V(cv), u.childFK), nrc.P(nrc.V(v), u.key)),
						head(lvl-1)(cv)))
			}
			return nrc.SingOf(record(v, levelFields(lvl, wide),
				nrc.NamedExpr{Name: u.bagAttr, Expr: bag}))
		}
	}
	top := hierarchy[level]
	tv := varFor(level)
	return nrc.ForIn(tv, nrc.V(top.table), head(level)(tv))
}

func varFor(lvl int) string {
	return [...]string{"li", "o", "c", "n", "r"}[lvl]
}

// leafJoinAgg is the paper's Example 1 aggregate: join the lineitems bag of
// ordVar with Part and sum quantity×price per part name.
func leafJoinAgg(bagExpr nrc.Expr) nrc.Expr {
	return nrc.SumByOf(
		nrc.ForIn("li2", bagExpr,
			nrc.ForIn("p", nrc.V("Part"),
				nrc.IfThen(nrc.EqOf(nrc.P(nrc.V("li2"), "l_partkey"), nrc.P(nrc.V("p"), "p_partkey")),
					nrc.SingOf(nrc.Record(
						"p_name", nrc.P(nrc.V("p"), "p_name"),
						"total", nrc.MulOf(nrc.P(nrc.V("li2"), "l_quantity"), nrc.P(nrc.V("p"), "p_retailprice")),
					))))),
		[]string{"p_name"}, []string{"total"})
}

// NestedToNestedQuery takes the wide nested input NDB and rebuilds the same
// hierarchy with the leaf replaced by the join-and-aggregate of Example 1.
// The narrow variant projects each level down to its narrow attributes.
func NestedToNestedQuery(level int, narrowOut bool) nrc.Expr {
	if level == 0 {
		// Flat input: join with Part, aggregate per order and part name.
		return nrc.SumByOf(
			nrc.ForIn("li", nrc.V("NDB"),
				nrc.ForIn("p", nrc.V("Part"),
					nrc.IfThen(nrc.EqOf(nrc.P(nrc.V("li"), "l_partkey"), nrc.P(nrc.V("p"), "p_partkey")),
						nrc.SingOf(nrc.Record(
							"l_orderkey", nrc.P(nrc.V("li"), "l_orderkey"),
							"p_name", nrc.P(nrc.V("p"), "p_name"),
							"total", nrc.MulOf(nrc.P(nrc.V("li"), "l_quantity"), nrc.P(nrc.V("p"), "p_retailprice")),
						))))),
			[]string{"l_orderkey", "p_name"}, []string{"total"})
	}
	var rebuild func(lvl int, v string) nrc.Expr
	rebuild = func(lvl int, v string) nrc.Expr {
		u := hierarchy[lvl]
		var bag nrc.Expr
		if lvl == 1 {
			bag = leafJoinAgg(nrc.P(nrc.V(v), u.bagAttr))
		} else {
			cv := varFor(lvl - 1)
			bag = nrc.ForIn(cv, nrc.P(nrc.V(v), u.bagAttr), rebuild(lvl-1, cv))
		}
		attrs := levelFields(lvl, !narrowOut)
		return nrc.SingOf(record(v, attrs, nrc.NamedExpr{Name: u.bagAttr, Expr: bag}))
	}
	tv := varFor(level)
	return nrc.ForIn(tv, nrc.V("NDB"), rebuild(level, tv))
}

// NestedToFlatQuery navigates the wide nested input down to the leaf, joins
// with Part, and aggregates at the top level on the top unit's display
// attribute, returning a flat collection (paper Section 6).
func NestedToFlatQuery(level int) nrc.Expr {
	if level == 0 {
		return nrc.SumByOf(
			nrc.ForIn("li", nrc.V("NDB"),
				nrc.ForIn("p", nrc.V("Part"),
					nrc.IfThen(nrc.EqOf(nrc.P(nrc.V("li"), "l_partkey"), nrc.P(nrc.V("p"), "p_partkey")),
						nrc.SingOf(nrc.Record(
							"name", nrc.P(nrc.V("p"), "p_name"),
							"total", nrc.MulOf(nrc.P(nrc.V("li"), "l_quantity"), nrc.P(nrc.V("p"), "p_retailprice")),
						))))),
			[]string{"name"}, []string{"total"})
	}
	top := hierarchy[level]
	tv := varFor(level)
	// Chain of fors navigating to the leaf.
	inner := nrc.SingOf(nrc.Record(
		"name", nrc.P(nrc.V(tv), top.narrow),
		"total", nrc.MulOf(nrc.P(nrc.V("li2"), "l_quantity"), nrc.P(nrc.V("p"), "p_retailprice")),
	))
	body := nrc.Expr(nrc.ForIn("p", nrc.V("Part"),
		nrc.IfThen(nrc.EqOf(nrc.P(nrc.V("li2"), "l_partkey"), nrc.P(nrc.V("p"), "p_partkey")), inner)))
	// innermost loop over lineitems of level-1 unit.
	body = nrc.ForIn("li2", nrc.P(nrc.V(varFor(1)), hierarchy[1].bagAttr), body)
	for lvl := 2; lvl <= level; lvl++ {
		body = nrc.ForIn(varFor(lvl-1), nrc.P(nrc.V(varFor(lvl)), hierarchy[lvl].bagAttr), body)
	}
	return nrc.SumByOf(nrc.ForIn(tv, nrc.V("NDB"), body), []string{"name"}, []string{"total"})
}

// NestedToFlatSelective is NestedToFlatQuery with two selective guards
// layered onto the leaf join: only expensive parts (p_retailprice ≥ 19.0,
// ~9% of the generated parts) and large lineitems (l_quantity > 45.0, ~10%)
// contribute. Both guards land as residual selections above the Part join in
// the compiled plan, which is exactly the shape the rule-based optimizer's
// predicate pushdown targets — BenchmarkPushdownAblation measures the win.
func NestedToFlatSelective(level int) nrc.Expr {
	checkLevel(level)
	guard := func(liVar string) nrc.Expr {
		return nrc.AndOf(
			nrc.GtOf(nrc.P(nrc.V(liVar), "l_quantity"), nrc.C(45.0)),
			nrc.GeOf(nrc.P(nrc.V("p"), "p_retailprice"), nrc.C(19.0)))
	}
	if level == 0 {
		return nrc.SumByOf(
			nrc.ForIn("li", nrc.V("NDB"),
				nrc.ForIn("p", nrc.V("Part"),
					nrc.IfThen(nrc.AndOf(
						nrc.EqOf(nrc.P(nrc.V("li"), "l_partkey"), nrc.P(nrc.V("p"), "p_partkey")),
						guard("li")),
						nrc.SingOf(nrc.Record(
							"name", nrc.P(nrc.V("p"), "p_name"),
							"total", nrc.MulOf(nrc.P(nrc.V("li"), "l_quantity"), nrc.P(nrc.V("p"), "p_retailprice")),
						))))),
			[]string{"name"}, []string{"total"})
	}
	top := hierarchy[level]
	tv := varFor(level)
	inner := nrc.SingOf(nrc.Record(
		"name", nrc.P(nrc.V(tv), top.narrow),
		"total", nrc.MulOf(nrc.P(nrc.V("li2"), "l_quantity"), nrc.P(nrc.V("p"), "p_retailprice")),
	))
	body := nrc.Expr(nrc.ForIn("p", nrc.V("Part"),
		nrc.IfThen(nrc.AndOf(
			nrc.EqOf(nrc.P(nrc.V("li2"), "l_partkey"), nrc.P(nrc.V("p"), "p_partkey")),
			guard("li2")),
			inner)))
	body = nrc.ForIn("li2", nrc.P(nrc.V(varFor(1)), hierarchy[1].bagAttr), body)
	for lvl := 2; lvl <= level; lvl++ {
		body = nrc.ForIn(varFor(lvl-1), nrc.P(nrc.V(varFor(lvl)), hierarchy[lvl].bagAttr), body)
	}
	return nrc.SumByOf(nrc.ForIn(tv, nrc.V("NDB"), body), []string{"name"}, []string{"total"})
}

// FlatSelective is a pure scan → select → project pipeline over the flat
// Lineitem relation, in the spirit of TPC-H Q6: keep lineitems whose
// discounted revenue l_extendedprice·(1−l_discount) clears a threshold and
// that are large and lightly discounted (~2% of generated rows survive all
// three conjuncts). The revenue conjunct is deliberately first, so every
// scanned row pays the arithmetic. Every operator in the compiled plan is
// narrow and every expression scalar, so the query isolates the narrow
// chain's per-row cost from join/shuffle costs (BenchmarkSelectiveNarrow, and
// the benchmark's flat_selective request kind).
func FlatSelective() nrc.Expr {
	l := nrc.V("l")
	revenue := func() nrc.Expr {
		return nrc.MulOf(
			nrc.P(l, "l_extendedprice"),
			nrc.SubOf(nrc.C(1.0), nrc.P(l, "l_discount")))
	}
	return nrc.ForIn("l", nrc.V("Lineitem"),
		nrc.IfThen(
			nrc.AndOf(
				nrc.GtOf(revenue(), nrc.C(60000.0)),
				nrc.AndOf(
					nrc.GtOf(nrc.P(l, "l_quantity"), nrc.C(45.0)),
					nrc.LtOf(nrc.P(l, "l_discount"), nrc.C(0.05)))),
			nrc.SingOf(nrc.Record(
				"l_orderkey", nrc.P(l, "l_orderkey"),
				"revenue", revenue(),
			))))
}

// PointLookup is a serving-shaped point query: fetch one order's lineitems
// by equality on l_orderkey. The generator emits LinesPerOrder rows per
// orderkey, so the predicate keeps LinesPerOrder/|Lineitem| of the relation
// (≤1% at any benchmarked scale) — the selectivity regime where an index
// scan replaces the full partition sweep. BenchmarkIndexScanAblation runs it
// with the l_orderkey index flagged in the statistics and without the flag.
func PointLookup(orderkey int64) nrc.Expr {
	l := nrc.V("l")
	return nrc.ForIn("l", nrc.V("Lineitem"),
		nrc.IfThen(nrc.EqOf(nrc.P(l, "l_orderkey"), nrc.C(orderkey)),
			nrc.SingOf(nrc.Record(
				"l_orderkey", nrc.P(l, "l_orderkey"),
				"l_linenumber", nrc.P(l, "l_linenumber"),
				"l_quantity", nrc.P(l, "l_quantity"),
				"l_extendedprice", nrc.P(l, "l_extendedprice"),
			))))
}

// ValidateLevel reports whether level is a supported nesting depth; CLIs use
// it to reject bad input with a friendly error before Query/Env panic.
func ValidateLevel(level int) error {
	if level < 0 || level > MaxLevel {
		return fmt.Errorf("nesting level %d out of range 0-%d", level, MaxLevel)
	}
	return nil
}

// checkLevel turns the out-of-range index panics deep inside the query
// builders into an actionable message at the API boundary.
func checkLevel(level int) {
	if err := ValidateLevel(level); err != nil {
		panic("tpch: " + err.Error())
	}
}

// Query builds the benchmark query for a class, level and width. Levels
// outside 0..MaxLevel panic with a descriptive message.
func Query(class QueryClass, level int, wide bool) nrc.Expr {
	checkLevel(level)
	switch class {
	case FlatToNested:
		return FlatToNestedQuery(level, wide)
	case NestedToNested:
		return NestedToNestedQuery(level, !wide)
	default:
		return NestedToFlatQuery(level)
	}
}

// Env returns the input environment for a class/level/width. Nested classes
// read the wide materialized input (paper Section 6).
func Env(class QueryClass, level int, wide bool) nrc.Env {
	checkLevel(level)
	if class == FlatToNested {
		return FlatEnv()
	}
	return NestedEnv(level, true)
}
