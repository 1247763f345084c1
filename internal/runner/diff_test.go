// Differential oracle harness: a seeded byte-stream generator (the same
// technique as the AST generator in internal/parse/fuzz_test.go, extended to
// well-typed queries of the distributed fragment over random nested datasets)
// produces hundreds of random NRC queries, each executed under all seven
// concrete strategies plus AUTO × {optimized+cost model, ablated} — sixteen
// distributed runs per query — and every result is compared against the
// tuple-at-a-time nrc.Eval reference semantics. Datasets are uniform or
// heavily skewed (a hot key carrying ~70% of R), per-run statistics feed the
// cost model and Auto's route choice, and the broadcast limit varies so joins
// exercise broadcast, swapped-broadcast, and shuffle paths. Any disagreement
// is a soundness bug in the compiler, the engine, the rule-based optimizer,
// or the cost-based planning layer.
package runner_test

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/trance-go/trance/internal/metrics"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/plan"
	"github.com/trance-go/trance/internal/runner"
	"github.com/trance-go/trance/internal/shred"
	"github.com/trance-go/trance/internal/stats"
	"github.com/trance-go/trance/internal/value"
)

// diffEnv is the fixed input environment of the generated queries: a
// two-level nested relation R (with an inner bag per item and a summand d)
// and a flat relation S to join with.
func diffEnv() nrc.Env {
	return nrc.Env{
		"R": nrc.BagOf(nrc.Tup(
			"a", nrc.IntT,
			"b", nrc.StringT,
			"c", nrc.RealT,
			"items", nrc.BagOf(nrc.Tup(
				"v", nrc.IntT,
				"w", nrc.StringT,
				"tags", nrc.BagOf(nrc.Tup("t", nrc.IntT)),
			)),
			// d is only ever summed (laterDraws): NULL-heavy, and holding
			// reals whose float sum depends on the order of its terms.
			"d", nrc.RealT,
		)),
		"S": nrc.BagOf(nrc.Tup("k", nrc.IntT, "name", nrc.StringT)),
	}
}

var diffStrs = []string{"ash", "birch", "cedar", "oak"}

// dgen deterministically derives datasets and queries from a byte stream.
// root names the relation the generated comprehensions range over: the input
// R, or the step that copies it in the program arm.
type dgen struct {
	data []byte
	i    int
	root string
	// summand: every sumBy also sums f4 := x.d (laterDraws).
	summand bool
}

func (g *dgen) b() byte {
	if g.i >= len(g.data) {
		return 0
	}
	v := g.data[g.i]
	g.i++
	return v
}

func (g *dgen) n(n int) int    { return int(g.b()) % n }
func (g *dgen) coin() bool     { return g.b()%2 == 0 }
func (g *dgen) str() string    { return diffStrs[g.n(len(diffStrs))] }
func (g *dgen) intv() int64    { return int64(g.n(5)) }
func (g *dgen) realv() float64 { return float64(g.n(4)) + 0.5 }

// dataset builds small random nested inputs: key ranges overlap deliberately
// so joins hit, miss, and duplicate; bags are frequently empty. One seed in
// four draws the skewed shape instead: a hot key carries ~70% of a larger R
// (and appears in S), so collected statistics cross the Auto skew threshold
// and the skew-aware operators' heavy/light split actually triggers.
func (g *dgen) dataset() map[string]value.Bag {
	skewed := g.n(4) == 0
	nR, nS := g.n(6), g.n(5)
	var hot int64
	if skewed {
		hot = g.intv()
		nR, nS = 20+g.n(5), 4+g.n(4)
	}
	R := value.Bag{}
	for i := 0; i < nR; i++ {
		items := value.Bag{}
		for j := g.n(4); j > 0; j-- {
			tags := value.Bag{}
			for k := g.n(3); k > 0; k-- {
				tags = append(tags, value.Tuple{g.intv()})
			}
			items = append(items, value.Tuple{g.intv(), g.str(), tags})
		}
		a := g.intv()
		if skewed && i%10 < 7 {
			a = hot
		}
		R = append(R, value.Tuple{a, g.str(), g.realv(), items, nil})
	}
	S := value.Bag{}
	for i := 0; i < nS; i++ {
		k := g.intv()
		if skewed && i == 0 {
			k = hot
		}
		S = append(S, value.Tuple{k, g.str()})
	}
	return map[string]value.Bag{"R": R, "S": S}
}

// laterDraws makes the draws added after a seed's existing ones, from a byte
// stream of their own derived from the seed's bytes, so no earlier draw moves:
// each R row's summand d — NULL in a quarter of the rows, 0.1 in another,
// else one of ±1e16, 1e-16 or an n+0.5 value: reals whose float sum depends
// on the order of its terms — and whether the seed's sumBys sum f4 := x.d
// beside f2 (in 7 seeds of 8).
func laterDraws(data []byte, inputs map[string]value.Bag) (summand bool) {
	h := fnv.New32a()
	h.Write(data)
	g := &dgen{data: seedBytes(int(h.Sum32()) | 1<<31)}
	summand = g.n(8) != 0
	for _, r := range inputs["R"] {
		var d value.Value
		switch g.n(8) {
		case 0, 1:
		case 2, 3:
			d = 0.1
		case 4:
			d = 1e16
		case 5:
			d = -1e16
		case 6:
			d = 1e-16
		default:
			d = g.realv()
		}
		r.(value.Tuple)[4] = d
	}
	return summand
}

// sumBy sums f2, and f4 := x.d too when the seed draws a summand, over the
// generated comprehension e.
func (g *dgen) sumBy(e nrc.Expr, keys ...string) nrc.Expr {
	if !g.summand {
		return nrc.SumByOf(e, keys, []string{"f2"})
	}
	return nrc.SumByOf(withSummand(e), keys, []string{"f2", "f4"})
}

// withSummand adds f4 := x.d to the head of a generated flat comprehension.
func withSummand(e nrc.Expr) nrc.Expr {
	head := e
	for {
		switch x := head.(type) {
		case *nrc.For:
			head = x.Body
			continue
		case *nrc.If:
			head = x.Then
			continue
		}
		break
	}
	t := head.(*nrc.Sing).Elem.(*nrc.TupleCtor)
	t.Fields = append(t.Fields, nrc.NamedExpr{Name: "f4", Expr: nrc.P(nrc.V("x"), "d")})
	return e
}

// bitIdentical is value.Equal with every real compared by its bits, so a
// route whose sum reads -0 where the oracle's reads +0 diverges too.
func bitIdentical(a, b value.Value) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	case value.Tuple:
		y, ok := b.(value.Tuple)
		return ok && seqBitIdentical(x, y)
	case value.Bag:
		y, ok := b.(value.Bag)
		if !ok || len(x) != len(y) {
			return false
		}
		xs, ys := slices.Clone(x), slices.Clone(y)
		slices.SortStableFunc(xs, value.Compare)
		slices.SortStableFunc(ys, value.Compare)
		return seqBitIdentical(xs, ys)
	}
	return value.Equal(a, b)
}

func seqBitIdentical(xs, ys []value.Value) bool {
	if len(xs) != len(ys) {
		return false
	}
	for i := range xs {
		if !bitIdentical(xs[i], ys[i]) {
			return false
		}
	}
	return true
}

// summedTerms reports, for R's rows summed by b, whether some d is NULL and
// whether some group's d terms, added left to right in floats, miss their
// correctly rounded sum.
func summedTerms(rows value.Bag) (null, orderDependent bool) {
	naive, exact := map[value.Value]float64{}, map[value.Value]*value.RealSum{}
	for _, r := range rows {
		t := r.(value.Tuple)
		v, ok := t[4].(float64)
		if !ok {
			null = true
			continue
		}
		if exact[t[1]] == nil {
			exact[t[1]] = &value.RealSum{}
		}
		naive[t[1]] += v
		exact[t[1]].Add(v)
	}
	for k, s := range exact {
		orderDependent = orderDependent || s.Float64() != naive[k]
	}
	return null, orderDependent
}

// path lazily constructs a scalar access path, so every use gets fresh AST
// nodes (trees must not share nodes across positions).
type path struct {
	mk  func() nrc.Expr
	typ nrc.Type
}

func projPath(v string, typ nrc.Type, fields ...string) path {
	return path{typ: typ, mk: func() nrc.Expr { return nrc.P(nrc.V(v), fields...) }}
}

// scope tracks the scalar paths available to predicates and heads.
type scope struct{ paths []path }

func (s *scope) ofType(t nrc.Type) []path {
	var out []path
	for _, p := range s.paths {
		if nrc.TypesEqual(p.typ, t) {
			out = append(out, p)
		}
	}
	return out
}

// constOf builds a literal of the given scalar type.
func (g *dgen) constOf(t nrc.Type) nrc.Expr {
	switch {
	case nrc.TypesEqual(t, nrc.IntT):
		return nrc.C(g.intv())
	case nrc.TypesEqual(t, nrc.RealT):
		return nrc.C(g.realv())
	default:
		return nrc.C(g.str())
	}
}

var cmpBuilders = []func(l, r nrc.Expr) *nrc.Cmp{nrc.EqOf, nrc.NeOf, nrc.LtOf, nrc.LeOf, nrc.GtOf, nrc.GeOf}

// atom builds one comparison over the scope: path vs constant, path vs path
// of the same type, or (rarely) a constant-only comparison that the
// optimizer's constant folding collapses.
func (g *dgen) atom(sc *scope) nrc.Expr {
	ts := []nrc.Type{nrc.IntT, nrc.RealT, nrc.StringT}
	t := ts[g.n(len(ts))]
	cands := sc.ofType(t)
	cmp := cmpBuilders[g.n(len(cmpBuilders))]
	if len(cands) == 0 || g.n(8) == 0 {
		return cmp(g.constOf(t), g.constOf(t))
	}
	l := cands[g.n(len(cands))].mk()
	if len(cands) > 1 && g.coin() {
		return cmp(l, cands[g.n(len(cands))].mk())
	}
	return cmp(l, g.constOf(t))
}

// pred builds a small boolean combination of atoms.
func (g *dgen) pred(sc *scope) nrc.Expr {
	p := g.atom(sc)
	for extra := g.n(3); extra > 0; extra-- {
		q := g.atom(sc)
		if g.n(4) == 0 {
			q = nrc.NotOf(q)
		}
		if g.coin() {
			p = nrc.AndOf(p, q)
		} else {
			p = nrc.OrOf(p, q)
		}
	}
	return p
}

// scalarExpr builds a head expression of the given type from the scope.
func (g *dgen) scalarExpr(sc *scope, t nrc.Type) nrc.Expr {
	cands := sc.ofType(t)
	if len(cands) == 0 || g.n(6) == 0 {
		return g.constOf(t)
	}
	e := cands[g.n(len(cands))].mk()
	if nrc.TypesEqual(t, nrc.StringT) || g.n(3) != 0 {
		return e
	}
	ops := []func(l, r nrc.Expr) *nrc.Arith{nrc.AddOf, nrc.SubOf, nrc.MulOf}
	return ops[g.n(len(ops))](e, g.constOf(t))
}

// comp builds a root comprehension producing {f1: int, f2: real, f3: string}
// tuples. The generator chain is: R always; optionally a join with S (keyed,
// constant-keyed, or cross), optionally an unnest of x.items, optionally a
// deeper unnest of it.tags; then an optional residual guard. withSub
// additionally adds a bag-valued head field built by a correlated inner
// comprehension (over x.items, or it.tags when the items were consumed by an
// unnest), which compiles to outer operators, nullifying selections, and Γ.
func (g *dgen) comp(withSub bool) nrc.Expr {
	sc := &scope{paths: []path{
		projPath("x", nrc.IntT, "a"),
		projPath("x", nrc.StringT, "b"),
		projPath("x", nrc.RealT, "c"),
	}}
	var guards []nrc.Expr

	useJoin := g.coin()
	if useJoin {
		switch g.n(4) {
		case 0:
			// Constant-keyed join: the equality feeds join-side derivation.
			guards = append(guards, nrc.EqOf(nrc.P(nrc.V("s"), "k"), nrc.C(g.intv())))
			guards = append(guards, nrc.EqOf(nrc.P(nrc.V("x"), "a"), nrc.P(nrc.V("s"), "k")))
		case 1:
			// Cross join (no equality links x and s).
		default:
			guards = append(guards, nrc.EqOf(nrc.P(nrc.V("x"), "a"), nrc.P(nrc.V("s"), "k")))
		}
		sc.paths = append(sc.paths,
			projPath("s", nrc.IntT, "k"),
			projPath("s", nrc.StringT, "name"))
	}
	useItems := g.coin()
	useTags := false
	if useItems {
		sc.paths = append(sc.paths,
			projPath("it", nrc.IntT, "v"),
			projPath("it", nrc.StringT, "w"))
		// withSub reserves it.tags for the correlated inner comprehension:
		// a bag flattened by an enclosing for cannot be iterated again
		// (the unnesting stage refuses consumed bag columns).
		if !withSub && g.coin() {
			useTags = true
			sc.paths = append(sc.paths, projPath("tg", nrc.IntT, "t"))
		}
	}
	if g.coin() {
		guards = append(guards, g.pred(sc))
	}
	// A selective point guard on R.a (indexed in half of the seeds): the
	// generator's free-form predicates reach a Scan almost exclusively as
	// range conjuncts with default-estimated selectivity, which the measured
	// range gate (indexScanMaxRangeSelectivity) rightly refuses — without an
	// equality that converts at 1/NDV, the matrix's index dimension would go
	// vacuous.
	if g.n(3) == 0 {
		guards = append(guards, nrc.EqOf(nrc.P(nrc.V("x"), "a"), nrc.C(g.intv())))
	}

	fields := []any{
		"f1", g.scalarExpr(sc, nrc.IntT),
		"f2", g.scalarExpr(sc, nrc.RealT),
		"f3", g.scalarExpr(sc, nrc.StringT),
	}
	if withSub {
		// Inner comprehension over a bag not consumed by an outer unnest:
		// x.items normally, it.tags when the items were unnested above.
		innerVar := "it2"
		innerPaths := []path{projPath("it2", nrc.IntT, "v"), projPath("it2", nrc.StringT, "w")}
		src := nrc.P(nrc.V("x"), "items")
		if useItems {
			innerVar = "tg2"
			innerPaths = []path{projPath("tg2", nrc.IntT, "t")}
			src = nrc.P(nrc.V("it"), "tags")
		}
		isc := &scope{paths: append(append([]path{}, sc.paths...), innerPaths...)}
		head := nrc.SingOf(nrc.Record(
			"p", g.scalarExpr(isc, nrc.IntT),
			"q", g.scalarExpr(isc, nrc.RealT)))
		var body nrc.Expr = head
		if g.coin() {
			body = nrc.IfThen(g.pred(isc), head)
		}
		fields = append(fields, "sub", nrc.ForIn(innerVar, src, body))
	}

	body := nrc.Expr(nrc.SingOf(nrc.Record(fields...)))
	for i := len(guards) - 1; i >= 0; i-- {
		body = nrc.IfThen(guards[i], body)
	}
	if useTags {
		body = nrc.ForIn("tg", nrc.P(nrc.V("it"), "tags"), body)
	}
	if useItems {
		body = nrc.ForIn("it", nrc.P(nrc.V("x"), "items"), body)
	}
	if useJoin {
		body = nrc.ForIn("s", nrc.V("S"), body)
	}
	return nrc.ForIn("x", nrc.V(g.root), body)
}

// query builds one top-level query: a plain flat or nested comprehension, a
// root aggregate / dedup / union over flat comprehensions, or a join on the
// key of an aggregate below it.
func (g *dgen) query() nrc.Expr {
	switch g.n(8) {
	case 0:
		return g.sumBy(g.comp(false), "f1", "f3")
	case 1:
		return g.sumBy(g.comp(false), "f3")
	case 2:
		// groupBy does not shred (its nested output attribute would need a
		// dictionary), so the shred-compatible deep flat shape is dedup∘union.
		return nrc.DedupOf(nrc.UnionOf(g.comp(false), g.comp(false)))
	case 3:
		return nrc.DedupOf(g.comp(false))
	case 4:
		return nrc.UnionOf(g.comp(false), g.comp(false))
	case 5, 6:
		return g.comp(true)
	default:
		if g.n(3) != 0 {
			// The Γ leaves its sums hash-placed on f1, the key the join
			// reads them by, so the join can skip that side's exchange.
			return groupedJoin(g.sumBy(g.comp(false), "f1"))
		}
		return g.comp(false)
	}
}

// diffConfig is the cluster sizing for differential runs — small enough to be
// fast, parallel enough to exercise shuffles — and the statistics they
// compile against. The full configuration carries collected statistics —
// with the seed's index flags, or none for the noIdx arm, which then plans no
// index scan — and a generator-chosen broadcast limit; the ablated
// configuration disables column pruning and the rule-based optimizer and
// carries no statistics, which ablates the cost model (so every seed also
// runs the plans as the unnesting stage wrote them, Γ keyed by every flat
// column, and the un-annotated plans Auto degrades to Standard on).
func diffConfig(full, noIdx bool, ests map[string]plan.TableEstimate, limit int64) (runner.Config, map[string]plan.TableEstimate) {
	cfg := runner.DefaultConfig()
	cfg.Parallelism = 3
	cfg.NoColumnPruning = !full
	cfg.NoPredicatePushdown = !full
	cfg.BroadcastLimit = limit
	switch {
	case !full:
		return cfg, nil
	case noIdx:
		return cfg, withoutIndexes(ests)
	}
	return cfg, ests
}

// withoutIndexes copies the statistics with every index flag cleared.
func withoutIndexes(ests map[string]plan.TableEstimate) map[string]plan.TableEstimate {
	out := map[string]plan.TableEstimate{}
	for name, te := range ests {
		cols := map[string]plan.ColEstimate{}
		for col, ce := range te.Cols {
			ce.Indexed = false
			cols[col] = ce
		}
		te.Cols = cols
		out[name] = te
	}
	return out
}

// diffIndexCols are the scalar columns the generator may index: every
// top-level scalar of R and S (inner-bag columns are not indexable).
var diffIndexCols = []struct{ ds, col string }{
	{"R", "a"}, {"R", "b"}, {"R", "c"}, {"S", "k"}, {"S", "name"},
}

// chooseIndexes draws the seed's index configuration: each top-level scalar
// column is independently indexed or not. Returns the indexed columns of
// each dataset, to flag in the collected statistics.
func (g *dgen) chooseIndexes() map[string][]string {
	out := map[string][]string{}
	for _, ic := range diffIndexCols {
		if g.coin() {
			out[ic.ds] = append(out[ic.ds], ic.col)
		}
	}
	return out
}

// applyIndexes stamps the chosen index flags into the collected statistics —
// the same shape a catalog session's resolve produces — and publishes the
// shredded-route estimate aliases so IndexScan conversion happens on the
// shredded top components too.
func applyIndexes(ests map[string]plan.TableEstimate, chosen map[string][]string) {
	for ds, cols := range chosen {
		te, ok := ests[ds]
		if !ok {
			continue
		}
		for _, col := range cols {
			ce := te.Cols[col]
			ce.Indexed = true
			te.Cols[col] = ce
		}
		ests[shred.MatName(ds, nil)] = te
	}
}

// collectDiffStats gathers per-input statistics the way a catalog session
// would, sized to the differential cluster: under the input's name and its
// shredded top component's.
func collectDiffStats(env nrc.Env, inputs map[string]value.Bag) map[string]plan.TableEstimate {
	ests := map[string]plan.TableEstimate{}
	for name, b := range inputs {
		bt := env[name].(nrc.BagType)
		ests[name] = stats.Collect(b, bt, stats.Options{Parallelism: 3}).Estimate()
		ests[shred.MatName(name, nil)] = ests[name]
	}
	return ests
}

// oracleEval runs the reference evaluator.
func oracleEval(q nrc.Expr, env nrc.Env, inputs map[string]value.Bag) (value.Bag, error) {
	if _, err := nrc.Check(q, env); err != nil {
		return nil, err
	}
	var s *nrc.Scope
	for name, b := range inputs {
		s = s.Bind(name, b)
	}
	return nrc.Eval(q, s).(value.Bag), nil
}

// nestedOutput is a run's answer as the oracle produces it: the rows of
// Output, the nested answer on every route. A shredded run (cq.Strategy is the
// resolved route, so AUTO runs land in the right branch too) is read a second
// way: its top bag (Result.Top) and dictionaries are unshredded at the value
// level (unshredValue), an inverse sharing no code with the stitching
// behind Output, and the two reads must be bit-identical.
func nestedOutput(cq *runner.Compiled, res *runner.Result) (value.Bag, error) {
	out := make(value.Bag, 0)
	for _, r := range res.Output.CollectSorted() {
		out = append(out, value.Tuple(r))
	}
	if !cq.Strategy.IsShredded() {
		return out, nil
	}
	top := make([]value.Tuple, 0)
	for _, r := range res.Top().Output.CollectSorted() {
		top = append(top, value.Tuple(r))
	}
	dicts := map[string][]value.Tuple{}
	for _, d := range cq.Mat.Dicts {
		rows := make([]value.Tuple, 0)
		for _, r := range res.Shredded()[d.Name].Collect() {
			rows = append(rows, value.Tuple(r))
		}
		dicts[strings.Join(d.Path, "_")] = rows
	}
	unshredded, err := unshredValue(top, dicts, cq.Mat.OutType)
	if err != nil {
		return nil, err
	}
	if !bitIdentical(out, unshredded) {
		return nil, fmt.Errorf("stitched Output %s, the top bag unshredded %s", value.Format(out), value.Format(unshredded))
	}
	return out, nil
}

// unshredValue rebuilds a nested bag from shredded components — the value
// unshredding function, value shredding's inverse. dicts maps
// attribute paths (joined by "_") to flat dictionary rows.
func unshredValue(top []value.Tuple, dicts map[string][]value.Tuple, t nrc.BagType) (value.Bag, error) {
	idx := map[string]map[string][]value.Tuple{}
	for path, rows := range dicts {
		m := map[string][]value.Tuple{}
		for _, r := range rows {
			k := value.Key(r[0])
			m[k] = append(m[k], r[1:])
		}
		idx[path] = m
	}
	return unshredBag(top, t.Elem, "", idx)
}

func unshredBag(rows []value.Tuple, elem nrc.Type, path string, idx map[string]map[string][]value.Tuple) (value.Bag, error) {
	tt, isTuple := elem.(nrc.TupleType)
	out := make(value.Bag, 0, len(rows))
	for _, r := range rows {
		if !isTuple {
			out = append(out, r[0])
			continue
		}
		nr := make(value.Tuple, len(tt.Fields))
		for i, f := range tt.Fields {
			bagT, isBag := f.Type.(nrc.BagType)
			if !isBag {
				nr[i] = r[i]
				continue
			}
			sub := f.Name
			if path != "" {
				sub = path + "_" + f.Name
			}
			m, ok := idx[sub]
			if !ok {
				return nil, fmt.Errorf("shred: missing dictionary for path %s", sub)
			}
			lbl, ok := r[i].(value.Label)
			if !ok {
				return nil, fmt.Errorf("shred: attribute %s is not a label: %v", f.Name, r[i])
			}
			inner, err := unshredBag(m[value.Key(lbl)], bagT.Elem, sub, idx)
			if err != nil {
				return nil, err
			}
			nr[i] = inner
		}
		out = append(out, nr)
	}
	return out, nil
}

// diffStrategies covers every concrete route plus the statistics-driven
// meta-strategy.
var diffStrategies = append(runner.AllStrategies(), runner.Auto)

// diffBroadcastLimits are the generator-selected broadcast limits: 0 forces
// every annotated join to shuffle, 200 bytes lets only tiny sides broadcast
// (exercising the swap path), and the default 64 KB broadcasts everything at
// differential scale.
var diffBroadcastLimits = []int64{0, 200, 64 << 10}

// diffCounts tallies one or more runDifferential calls: how many engine runs
// were compared against the oracle, and how many of them exercised each layer
// (the vacuity floors of TestDifferentialOracle).
type diffCounts struct {
	runs      int // engine runs compared against the oracle
	optimized int // full runs whose plans the optimizer changed
	pushed    int // predicate × operator crossings of those runs
	nested    int // seeds with a Γ above an addIndex on some strategy's ablated plans
	narrowed  int // those of them where the strategy's full plans key their Γs by fewer columns
	indexed   int // runs that planned at least one index scan
	shuffled  int // runs that moved a row across an exchange
	fused     int // seeds with a join writing its projection on some strategy's full plans
	composed  int // seeds where some strategy's full plans hold fewer π/ext than its ablated plans
	local     int // seeds where some strategy's full plans reduce a Γ/dedup in place
	combined  int // seeds where some strategy's run combines a Γ+/dedup before its exchange
	placed    int // seed × strategy pairs whose full plans place a join side
	// nullSummed counts seeds whose summing arm adds a NULL d, orderSummed
	// those where one of its groups' d sum depends on the order of its terms
	// in floats.
	nullSummed, orderSummed int
	// boundSkip counts seeds where a shredded route skips an exchange over an
	// input dictionary bound placed on its label; scanLocal those where a Γ
	// or dedup reduces in place over a placed Scan.
	boundSkip, scanLocal int
	// labelLocal counts seeds where a shredded route joins two of an input's
	// root-aligned components on a label with both sides placed; backedOff
	// those where an analyzed run's combined Γ+/dedup shipped a row per row,
	// its keys repeating in no source partition.
	labelLocal, backedOff int
	// groupedPlaced counts seeds whose grouped-join program places a join
	// side on some strategy.
	groupedPlaced int
	// skewBroadcast counts seeds where a skew-aware run ran a keyed
	// broadcast join, which splits nothing; skewLight those where a
	// skew-aware run found no heavy key and so matched its skew-unaware twin.
	skewBroadcast, skewLight int
	// shreddedSteps counts program runs whose second step read the first
	// step's output in shredded form.
	shreddedSteps int
	// stitchResolved counts seeds whose stitched replies resolved a label
	// inside the comparator, stitchDeep those that stitched a bag two levels
	// down; stitchDemanded those where a limited read ran fewer input rows
	// through a deferred dictionary's chain than it holds, stitchDemandTie
	// those where the comparator resolved a label demanded of one;
	// stitchMinted those where a limited read demanded rows of a deferred
	// statement whose label is minted from a flat input's columns, stitchWide
	// of one holding a broadcast ⋈ or a Γ reduced in place.
	stitchResolved, stitchDeep, stitchDemanded, stitchDemandTie, stitchMinted, stitchWide int
}

func (c *diffCounts) add(o diffCounts) {
	c.runs += o.runs
	c.optimized += o.optimized
	c.pushed += o.pushed
	c.nested += o.nested
	c.narrowed += o.narrowed
	c.indexed += o.indexed
	c.shuffled += o.shuffled
	c.fused += o.fused
	c.composed += o.composed
	c.local += o.local
	c.combined += o.combined
	c.nullSummed += o.nullSummed
	c.orderSummed += o.orderSummed
	c.placed += o.placed
	c.boundSkip += o.boundSkip
	c.scanLocal += o.scanLocal
	c.labelLocal += o.labelLocal
	c.backedOff += o.backedOff
	c.groupedPlaced += o.groupedPlaced
	c.skewBroadcast += o.skewBroadcast
	c.skewLight += o.skewLight
	c.shreddedSteps += o.shreddedSteps
	c.stitchResolved += o.stitchResolved
	c.stitchDeep += o.stitchDeep
	c.stitchDemanded += o.stitchDemanded
	c.stitchDemandTie += o.stitchDemandTie
	c.stitchMinted += o.stitchMinted
	c.stitchWide += o.stitchWide
}

// runDifferential executes one generated query under the full
// strategy × {full, full without index flags, ablated} matrix and compares
// each run against the oracle (the index arm only splits full runs: ablated
// runs carry no statistics and so never plan index scans). The query is regenerated from
// the same bytes for every compilation (compilation annotates ASTs in place).
// Returns the tallies, or an error describing the first divergence.
func runDifferential(data []byte, strict bool) (n diffCounts, err error) {
	env := diffEnv()
	g := &dgen{data: data}
	inputs := g.dataset()
	limit := diffBroadcastLimits[g.n(len(diffBroadcastLimits))]
	chosen := g.chooseIndexes()
	queryAt := g.i
	summand := laterDraws(data, inputs)
	mkQuery := func(root string) nrc.Expr {
		qg := &dgen{data: data, i: queryAt, root: root, summand: summand}
		return qg.query()
	}
	q := mkQuery("R")

	want, err := oracleEval(q, env, inputs)
	if err != nil {
		return n, fmt.Errorf("generated query fails Check (generator bug): %v\n%s", err, nrc.Print(q))
	}
	ests := collectDiffStats(env, inputs)
	applyIndexes(ests, chosen)

	nested, narrowed, fused, composed, local, combined := false, false, false, false, false, false
	boundSkip, scanLocal, labelLocal := false, false, false
	stitchK := 1 + g.n(4) // the stitching checks' limit besides 0
	var st stitchSeen
	for _, strat := range diffStrategies {
		keyCols := map[bool]int{} // Γ key columns of the strategy's plans, by arm
		narrowOps := map[bool]int{}
		placed := false
		for _, full := range []bool{true, false} {
			noIdxArms := []bool{false}
			if full {
				noIdxArms = []bool{false, true}
			}
			for _, noIdx := range noIdxArms {
				cfg, cst := diffConfig(full, noIdx, ests, limit)
				cq, cerr := runner.CompileStep(mkQuery("R"), env, strat, cfg, cst, "Q")
				if cerr != nil {
					if strict {
						return n, fmt.Errorf("%s (full=%t, noidx=%t) does not compile: %v\n%s",
							strat, full, noIdx, cerr, nrc.Print(q))
					}
					return n, errSkip
				}
				if full && !noIdx && cq.Opt.Total() > 0 {
					n.optimized++
					n.pushed += int(cq.Opt.PredicatesPushed)
				}
				if !noIdx {
					var overID bool
					keyCols[full], overID = nestKeyCols(cq)
					nested = nested || overID && !full
					var fusedJoins int
					fusedJoins, narrowOps[full] = fusionOf(cq)
					if fusedJoins > 0 && !full {
						return n, fmt.Errorf("%s holds %d fused joins with NoColumnPruning set\n%s", strat, fusedJoins, cq.Explain())
					}
					fused = fused || fusedJoins > 0
				}
				if cq.Idx.Planned > 0 {
					if noIdx {
						return n, fmt.Errorf(
							"%s planned %d index scans with no index flagged\n%s", strat, cq.Idx.Planned, nrc.Print(q))
					}
					n.indexed++
				}
				res := runner.ExecuteBags(context.Background(), []*runner.Compiled{cq}, inputs, runner.NewRunContext(cfg), runner.ExecOptions{})
				if res.Failed() {
					return n, fmt.Errorf("%s (full=%t, noidx=%t) failed: %v\n%s",
						strat, full, noIdx, res.Err, nrc.Print(q))
				}
				// The plans' exchanges first: a skipped exchange over rows that
				// lie elsewhere than planned explains any wrong answer below.
				marked, sides, merged, lerr := exchangesAsPlanned(res.Program(), res, inputs, cfg.Parallelism)
				if skipped := res.Metrics.SkippedShuffles; lerr == nil && skipped > 0 && strat == runner.SparkSQLStyle {
					lerr = fmt.Errorf("%d Γ/dedup marked local, %d join sides placed and %d exchanges skipped on the baseline that reuses no placement", marked, sides, skipped)
				}
				if lerr == nil && merged > 0 && strat == runner.SparkSQLStyle {
					lerr = fmt.Errorf("%d Γ/dedup combined on the baseline that places nothing", merged)
				}
				if lerr != nil {
					return n, fmt.Errorf("%s (full=%t, noidx=%t): %v\n%s", strat, full, noIdx, lerr, cq.Explain())
				}
				if cq.Strategy.IsShredded() {
					if err := checkStitch(res, want, stitchK, &st); err != nil {
						return n, fmt.Errorf("%s (full=%t, noidx=%t): %v\n%s", strat, full, noIdx, err, nrc.Print(q))
					}
				}
				got, gerr := nestedOutput(cq, res)
				if res.Metrics.ShuffleRecords > 0 {
					n.shuffled++
				}
				local = local || full && marked > 0
				combined = combined || merged > 0
				placed = placed || full && sides > 0
				overDict, overScan, bothPlaced := boundReuse(res.Program(), env)
				if strat == runner.SparkSQLStyle && (overDict || overScan || bothPlaced) {
					return n, fmt.Errorf("the baseline that reuses no placement skipped an exchange over a placed input\n%s", cq.Explain())
				}
				boundSkip = boundSkip || overDict
				scanLocal = scanLocal || overScan
				labelLocal = labelLocal || bothPlaced
				if gerr != nil {
					return n, fmt.Errorf("%s (full=%t, noidx=%t) unshred: %v\n%s",
						strat, full, noIdx, gerr, nrc.Print(q))
				}
				if !bitIdentical(got, want) {
					return n, fmt.Errorf(
						"%s (full=%t, noidx=%t, resolved %s, bcast=%d, idx-planned=%d) diverges from the nrc.Eval oracle\nquery:\n%s\ninputs: %s\n got: %s\nwant: %s\nexplain:\n%s",
						strat, full, noIdx, cq.Strategy, limit, cq.Idx.Planned, nrc.Print(q), value.Format(value.Tuple{inputs["R"], inputs["S"]}),
						value.Format(got), value.Format(want), cq.Explain())
				}
				if err := stagesAddUp(res); err != nil {
					return n, fmt.Errorf("%s (full=%t, noidx=%t): %v\n%s", strat, full, noIdx, err, nrc.Print(q))
				}
				n.runs++
			}
		}
		if keyCols[true] < keyCols[false] {
			narrowed = true
		}
		if narrowOps[true] < narrowOps[false] {
			composed = true
		}
		if placed {
			n.placed++
		}
	}
	if nested {
		n.nested++
	}
	if narrowed {
		n.narrowed++
	}
	if fused {
		n.fused++
	}
	if composed {
		n.composed++
	}
	if local {
		n.local++
	}
	if combined {
		n.combined++
	}
	broadcast, light, backedOff, err := skewTwins(mkQuery("R"), mkQuery, env, inputs, ests, limit)
	if err != nil {
		return n, err
	}
	if backedOff {
		n.backedOff++
	}
	if broadcast {
		n.skewBroadcast++
	}
	if light {
		n.skewLight++
	}

	// The program arm: the same query as the second step of a two-step
	// program whose first step copies R, so the query reads a step output —
	// the nested dataset on standard routes, the shred.MatName components the
	// first step left bound on shredded ones — instead of a converted input.
	// The copy is the identity on bags, so the oracle value is unchanged.
	for _, strat := range diffStrategies {
		cfg, cst := diffConfig(true, false, ests, limit)
		prog, cerr := runner.CompileProgram([]nrc.Assignment{
			{Name: "P", Expr: nrc.ForIn("x", nrc.V("R"), nrc.SingOf(nrc.V("x")))},
			{Name: "Out", Expr: mkQuery("P")},
		}, env, strat, cfg, cst)
		if cerr != nil {
			if strict {
				return n, fmt.Errorf("%s program does not compile: %v\n%s", strat, cerr, nrc.Print(q))
			}
			return n, errSkip
		}
		last := prog[1]
		res := runner.ExecuteBags(context.Background(), prog, inputs, runner.NewRunContext(cfg), runner.ExecOptions{})
		if res.Failed() {
			return n, fmt.Errorf("%s program failed at step %d: %v\n%s", strat, res.FailedStep, res.Err, nrc.Print(q))
		}
		if last.Strategy.IsShredded() {
			if err := checkStitch(res, want, stitchK, &st); err != nil {
				return n, fmt.Errorf("%s program: %v\n%s", strat, err, nrc.Print(q))
			}
		}
		got, gerr := nestedOutput(last, res)
		if _, _, _, lerr := exchangesAsPlanned(res.Program(), res, inputs, cfg.Parallelism); lerr != nil {
			return n, fmt.Errorf("%s program: %v\n%s", strat, lerr, runner.Explain(prog))
		}
		if gerr != nil {
			return n, fmt.Errorf("%s program unshred: %v\n%s", strat, gerr, nrc.Print(q))
		}
		if !bitIdentical(got, want) {
			return n, fmt.Errorf(
				"%s program (resolved %s, bcast=%d) diverges from the nrc.Eval oracle\nquery over P := R:\n%s\ninputs: %s\n got: %s\nwant: %s\nexplain:\n%s",
				strat, last.Strategy, limit, nrc.Print(q), value.Format(value.Tuple{inputs["R"], inputs["S"]}),
				value.Format(got), value.Format(want), runner.Explain(prog))
		}
		if last.Strategy.IsShredded() {
			n.shreddedSteps++
		}
		if err := stagesAddUp(res); err != nil {
			return n, fmt.Errorf("%s program: %v\n%s", strat, err, nrc.Print(q))
		}
		n.runs++
	}

	// The grouped-join arm: a program whose first step sums a generated
	// comprehension by f1 and whose second joins those sums with S on f1, the
	// key the first step's Γ left its output hash-placed on, so the join can
	// skip that side's exchange; it writes its projection on every route.
	gg := func() *dgen { return &dgen{data: data, i: queryAt, root: "R", summand: summand} }
	gsteps := func() []nrc.Assignment {
		return []nrc.Assignment{
			{Name: "G", Expr: gg().sumBy(gg().comp(false), "f1")},
			{Name: "Out", Expr: groupedJoin(nrc.V("G"))},
		}
	}
	groupedPlaced := false
	gwant, err := oracleProgram(gsteps(), env, inputs)
	if err != nil {
		return n, fmt.Errorf("grouped-join program fails Check (generator bug): %v", err)
	}
	for _, strat := range diffStrategies {
		cfg, cst := diffConfig(true, false, ests, limit)
		prog, cerr := runner.CompileProgram(gsteps(), env, strat, cfg, cst)
		if cerr != nil {
			if strict {
				return n, fmt.Errorf("%s grouped-join program does not compile: %v", strat, cerr)
			}
			return n, errSkip
		}
		res := runner.ExecuteBags(context.Background(), prog, inputs, runner.NewRunContext(cfg), runner.ExecOptions{})
		if res.Failed() {
			return n, fmt.Errorf("%s grouped-join program failed at step %d: %v", strat, res.FailedStep, res.Err)
		}
		if prog[1].Strategy.IsShredded() {
			if err := checkStitch(res, gwant, stitchK, &st); err != nil {
				return n, fmt.Errorf("%s grouped-join program: %v", strat, err)
			}
		}
		got, gerr := nestedOutput(prog[1], res)
		if gerr != nil {
			return n, fmt.Errorf("%s grouped-join program unshred: %v", strat, gerr)
		}
		if !bitIdentical(got, gwant) {
			return n, fmt.Errorf("%s grouped-join program diverges from the nrc.Eval oracle\n got: %s\nwant: %s\nexplain:\n%s",
				strat, value.Format(got), value.Format(gwant), runner.Explain(prog))
		}
		_, sides, merged, lerr := exchangesAsPlanned(res.Program(), res, inputs, cfg.Parallelism)
		if skipped := res.Metrics.SkippedShuffles; lerr == nil && (skipped > 0 || merged > 0) && strat == runner.SparkSQLStyle {
			lerr = fmt.Errorf("%d exchanges skipped and %d Γ/dedup combined on the baseline that places nothing", skipped, merged)
		}
		if lerr != nil {
			return n, fmt.Errorf("%s grouped-join program: %v\n%s", strat, lerr, runner.Explain(res.Program()))
		}
		groupedPlaced = groupedPlaced || sides > 0
		if fusedJoins, _ := fusionOf(prog[1]); fusedJoins == 0 {
			return n, fmt.Errorf("%s grouped-join program's join does not write its projection\n%s", strat, runner.Explain(prog))
		}
		if err := stagesAddUp(res); err != nil {
			return n, fmt.Errorf("%s grouped-join program: %v", strat, err)
		}
		n.runs++
	}
	if groupedPlaced {
		n.groupedPlaced++
	}

	// The summing arm: R's int a and real d summed by b on every route, each
	// route's sums the oracle's bits although the routes split and order the
	// terms differently (local, exchanged and combined reduces).
	null, ordered := summedTerms(inputs["R"])
	sumQuery := func() nrc.Expr {
		x := nrc.V("x")
		return nrc.SumByOf(nrc.ForIn("x", nrc.V("R"), nrc.SingOf(nrc.Record("b", nrc.P(x, "b"), "a", nrc.P(x, "a"), "d", nrc.P(x, "d")))),
			[]string{"b"}, []string{"a", "d"})
	}
	sumWant, err := oracleEval(sumQuery(), env, inputs)
	if err != nil {
		return n, fmt.Errorf("summing query fails Check: %v", err)
	}
	for _, strat := range diffStrategies {
		cfg, cst := diffConfig(true, false, ests, limit)
		cq, cerr := runner.CompileStep(sumQuery(), env, strat, cfg, cst, "Q")
		if cerr != nil {
			return n, fmt.Errorf("%s summing query does not compile: %v", strat, cerr)
		}
		res := runner.ExecuteBags(context.Background(), []*runner.Compiled{cq}, inputs, runner.NewRunContext(cfg), runner.ExecOptions{})
		if res.Failed() {
			return n, fmt.Errorf("%s summing query failed: %v", strat, res.Err)
		}
		got, gerr := nestedOutput(cq, res)
		if gerr != nil || !bitIdentical(got, sumWant) {
			return n, fmt.Errorf("%s summing query diverges from the nrc.Eval oracle (%v)\n got: %s\nwant: %s\nexplain:\n%s",
				strat, gerr, value.Format(got), value.Format(sumWant), cq.Explain())
		}
		if _, _, _, lerr := exchangesAsPlanned(res.Program(), res, inputs, cfg.Parallelism); lerr != nil {
			return n, fmt.Errorf("%s summing query: %v\n%s", strat, lerr, cq.Explain())
		}
		n.runs++
	}
	n.nullSummed += b2i(null)
	n.orderSummed += b2i(ordered)

	// The stitching arm: a query with two nesting levels whose leading scalar
	// repeats, on the shredded routes (and Auto when it picks one), its
	// stitched rows checked against the oracle's. In half the seeds the same
	// query with its inner tags counted per tag runs too, decided by a draw
	// after all of the query's.
	sg := &dgen{data: data, i: len(data) / 2}
	sg.stitchQuery(false)
	arms := []bool{false}
	if sg.coin() {
		arms = append(arms, true)
	}
	for _, counted := range arms {
		sq := func() nrc.Expr { return (&dgen{data: data, i: len(data) / 2}).stitchQuery(counted) }
		swant, err := oracleEval(sq(), env, inputs)
		if err != nil {
			return n, fmt.Errorf("stitching query fails Check (generator bug): %v\n%s", err, nrc.Print(sq()))
		}
		for _, strat := range []runner.Strategy{runner.Shred, runner.ShredSkew, runner.Auto} {
			cfg, cst := diffConfig(true, false, ests, limit)
			cq, cerr := runner.CompileStep(sq(), env, strat, cfg, cst, "Q")
			if cerr != nil {
				if strict {
					return n, fmt.Errorf("%s stitching query does not compile: %v\n%s", strat, cerr, nrc.Print(sq()))
				}
				return n, errSkip
			}
			if !cq.Strategy.IsShredded() {
				continue
			}
			res := runner.ExecuteBags(context.Background(), []*runner.Compiled{cq}, inputs, runner.NewRunContext(cfg), runner.ExecOptions{})
			if res.Failed() {
				return n, fmt.Errorf("%s stitching query failed: %v\n%s", strat, res.Err, nrc.Print(sq()))
			}
			if err := checkStitch(res, swant, stitchK, &st); err != nil {
				return n, fmt.Errorf("%s stitching query: %v\n%s", strat, err, nrc.Print(sq()))
			}
			got, err := nestedOutput(cq, res)
			if err != nil {
				return n, fmt.Errorf("%s stitching query failed: %v %v\n%s", strat, res.Err, err, nrc.Print(sq()))
			}
			if !bitIdentical(got, swant) {
				return n, fmt.Errorf("%s stitching query diverges from the nrc.Eval oracle\nquery:\n%s\n got: %s\nwant: %s",
					strat, nrc.Print(sq()), value.Format(got), value.Format(swant))
			}
			if err := stagesAddUp(res); err != nil {
				return n, fmt.Errorf("%s stitching query: %v\n%s", strat, err, nrc.Print(sq()))
			}
			overDict, overScan, bothPlaced := boundReuse(res.Program(), env)
			boundSkip = boundSkip || overDict
			scanLocal = scanLocal || overScan
			labelLocal = labelLocal || bothPlaced
			n.runs++
		}
	}
	// The minted arm: a query whose dictionaries a limited read demands
	// through a label minted from S's columns and through a join over R's
	// placed items, on the shredded routes, checked as the stitching arm is.
	// Its S is larger than the seed's, so a few labels' rows are not most of
	// it, which a limited read forces instead of demanding.
	mq := func() nrc.Expr { return mintedDraws(data, "query").mintedQuery() }
	minputs := maps.Clone(inputs)
	minputs["S"] = mintedDraws(data, "S").flatS()
	mwant, err := oracleEval(mq(), env, minputs)
	if err != nil {
		return n, fmt.Errorf("minted query fails Check (generator bug): %v\n%s", err, nrc.Print(mq()))
	}
	mests := collectDiffStats(env, minputs)
	for _, strat := range []runner.Strategy{runner.Shred, runner.ShredSkew} {
		cfg, cst := diffConfig(true, true, mests, limit)
		cq, cerr := runner.CompileStep(mq(), env, strat, cfg, cst, "Q")
		if cerr != nil {
			return n, fmt.Errorf("%s minted query does not compile: %v\n%s", strat, cerr, nrc.Print(mq()))
		}
		res := runner.ExecuteBags(context.Background(), []*runner.Compiled{cq}, minputs, runner.NewRunContext(cfg), runner.ExecOptions{})
		if res.Failed() {
			return n, fmt.Errorf("%s minted query failed: %v\n%s", strat, res.Err, nrc.Print(mq()))
		}
		if err := checkStitch(res, mwant, stitchK, &st); err != nil {
			return n, fmt.Errorf("%s minted query: %v\n%s\n%s", strat, err, nrc.Print(mq()), cq.Explain())
		}
		if got, err := nestedOutput(cq, res); err != nil || !bitIdentical(got, mwant) {
			return n, fmt.Errorf("%s minted query diverges from the nrc.Eval oracle (%v)\n got: %s\nwant: %s\n%s", strat, err, value.Format(got), value.Format(mwant), cq.Explain())
		}
		n.runs++
	}
	if boundSkip {
		n.boundSkip++
	}
	if scanLocal {
		n.scanLocal++
	}
	if labelLocal {
		n.labelLocal++
	}
	if st.minted > 0 {
		n.stitchMinted++
	}
	if st.wide > 0 {
		n.stitchWide++
	}
	if st.resolved > 0 {
		n.stitchResolved++
	}
	if st.depth >= 2 {
		n.stitchDeep++
	}
	if st.demandedFewer > 0 {
		n.stitchDemanded++
	}
	if st.demandTies > 0 {
		n.stitchDemandTie++
	}
	return n, nil
}

// groupedJoin joins sums, a bag of ⟨f1, f2⟩ grouped by f1, with S on the key
// they are grouped by: the grouped-join arm's second step over its first
// step's output G, and a generated query over a sumBy.
func groupedJoin(sums nrc.Expr) nrc.Expr {
	g, s := nrc.V("g"), nrc.V("s")
	return nrc.ForIn("g", sums, nrc.ForIn("s", nrc.V("S"),
		nrc.IfThen(nrc.EqOf(nrc.P(g, "f1"), nrc.P(s, "k")),
			nrc.SingOf(nrc.Record("f1", nrc.P(g, "f1"), "f2", nrc.P(g, "f2"), "name", nrc.P(s, "name"))))))
}

// oracleProgram evaluates a program with the reference evaluator, each step
// over the inputs and the steps before it, and returns the last step's value.
func oracleProgram(steps []nrc.Assignment, env nrc.Env, inputs map[string]value.Bag) (value.Bag, error) {
	env, inputs = maps.Clone(env), maps.Clone(inputs)
	var out value.Bag
	for _, st := range steps {
		t, err := nrc.Check(st.Expr, env)
		if err != nil {
			return nil, err
		}
		if out, err = oracleEval(st.Expr, env, inputs); err != nil {
			return nil, err
		}
		env[st.Name], inputs[st.Name] = t, out
	}
	return out, nil
}

// stitchQuery builds the stitching arm's query over R: each row's items with
// their tags (two nesting levels; the tags a bag of scalars in half the seeds,
// of tuples in the other, and when counted a count per tag instead — sumby
// over the inner bag alone, a Γ keyed by the label on shredded routes), under
// a leading scalar that is a constant or x.a, so rows tie on it and their
// order is decided inside the bags; guards leave some bags empty. counted
// moves no draw.
func (g *dgen) stitchQuery(counted bool) nrc.Expr {
	x, it, tg := nrc.V("x"), nrc.V("it"), nrc.V("tg")
	lead := nrc.Expr(nrc.C(g.intv()))
	if g.coin() {
		lead = nrc.P(x, "a")
	}
	var tag nrc.Expr = nrc.P(tg, "t")
	if g.coin() {
		tag = nrc.Record("t", nrc.P(tg, "t"))
	}
	tags := nrc.Expr(nrc.ForIn("tg", nrc.P(it, "tags"), nrc.SingOf(tag)))
	if counted {
		tags = nrc.SumByOf(nrc.ForIn("tg", nrc.P(it, "tags"),
			nrc.SingOf(nrc.Record("t", nrc.P(tg, "t"), "n", nrc.C(int64(1))))), []string{"t"}, []string{"n"})
	}
	var inner nrc.Expr = nrc.SingOf(nrc.Record("v", nrc.P(it, "v"), "tags", tags))
	if g.coin() {
		inner = nrc.IfThen(g.pred(&scope{paths: []path{projPath("it", nrc.IntT, "v"), projPath("it", nrc.StringT, "w")}}), inner)
	}
	var body nrc.Expr = nrc.SingOf(nrc.Record("k", lead, "items", nrc.ForIn("it", nrc.P(x, "items"), inner)))
	if g.coin() {
		body = nrc.IfThen(g.pred(&scope{paths: []path{projPath("x", nrc.IntT, "a"), projPath("x", nrc.StringT, "b")}}), body)
	}
	return nrc.ForIn("x", nrc.V("R"), body)
}

// mintedDraws is a generator of the minted arm's: a byte stream of its own,
// one per salt, derived from the seed's bytes as laterDraws' is, so no
// earlier draw moves.
func mintedDraws(data []byte, salt string) *dgen {
	h := fnv.New32a()
	h.Write(data)
	h.Write([]byte("minted " + salt))
	return &dgen{data: seedBytes(int(h.Sum32()) | 1<<31)}
}

// flatS is the minted arm's S: 24 to 40 rows over the seed's key and name
// domains, so R's rows match some of them on k, and on k and name.
func (g *dgen) flatS() value.Bag {
	S := value.Bag{}
	for i := 24 + g.n(17); i > 0; i-- {
		S = append(S, value.Tuple{g.intv(), g.str()})
	}
	return S
}

// mintedQuery builds the minted arm's query over R: per row a leading scalar
// (a constant or x.a, so rows tie on it), the names of the S rows whose k is
// x.a — and, in half the seeds, whose name is x.b too — and per item the
// names of the S rows whose k is its v. Domain elimination computes the first
// dictionary from S directly, its label minted from one or two of S's
// columns — in a quarter of the seeds from S's k summed per name, which a Γ
// keyed without the label computes, in the column the rows' own k takes
// before it; the second joins R's placed items with S, a broadcast where the cost model
// decides so. In a third of the seeds the first is counted per name (a Γ
// keyed by its minted label), and in another third the second is (a Γ keyed
// by the items' label, reduced in place).
func (g *dgen) mintedQuery() nrc.Expr {
	x, it, s := nrc.V("x"), nrc.V("it"), nrc.V("s")
	lead := nrc.Expr(nrc.C(g.intv()))
	if g.coin() {
		lead = nrc.P(x, "a")
	}
	var src nrc.Expr = nrc.V("S")
	if g.n(4) == 0 {
		y := nrc.V("y")
		src = nrc.SumByOf(nrc.ForIn("y", nrc.V("S"), nrc.SingOf(nrc.Record(
			"name", nrc.P(y, "name"), "k", nrc.P(y, "k")))), []string{"name"}, []string{"k"})
	}
	match := nrc.Expr(nrc.EqOf(nrc.P(s, "k"), nrc.P(x, "a")))
	if g.coin() {
		match = nrc.AndOf(match, nrc.EqOf(nrc.P(s, "name"), nrc.P(x, "b")))
	}
	counted := g.n(3)
	names := nrc.Expr(nrc.ForIn("s", src, nrc.IfThen(match, nrc.SingOf(nrc.Record("n", nrc.P(s, "name"))))))
	if counted == 1 {
		names = nrc.SumByOf(nrc.ForIn("s", src, nrc.IfThen(match,
			nrc.SingOf(nrc.Record("n", nrc.P(s, "name"), "c", nrc.C(int64(1)))))), []string{"n"}, []string{"c"})
	}
	// u, not s: a node holds one type, and s is bound to the summed rows
	// above in half the seeds — Check refuses one node under two types.
	u := nrc.V("u")
	pairs := func(head nrc.Expr) nrc.Expr {
		return nrc.ForIn("it", nrc.P(x, "items"), nrc.ForIn("u", nrc.V("S"),
			nrc.IfThen(nrc.EqOf(nrc.P(u, "k"), nrc.P(it, "v")), nrc.SingOf(head))))
	}
	joined := pairs(nrc.Record("v", nrc.P(it, "v"), "n", nrc.P(u, "name")))
	if counted == 2 {
		joined = nrc.SumByOf(pairs(nrc.Record("v", nrc.P(it, "v"), "c", nrc.C(int64(1)))), []string{"v"}, []string{"c"})
	}
	return nrc.ForIn("x", nrc.V("R"), nrc.SingOf(nrc.Record(
		"k", lead, "ss", names, "js", joined)))
}

// skewTwins runs each skew-aware strategy beside its skew-unaware twin on the
// full plans, both analyzed. A keyed join the skew-aware plans broadcast runs
// the plain join: it splits its input on no heavy key, sampled or kept, and
// its plan marks no kept split and no placed side; broadcast reports that one
// ran. Where a skew-aware run found no heavy key anywhere (light), its answer
// is bit-identical to its twin's: the heavy set only picks where rows run.
// Where it split nothing at all, it shuffles the same bytes too. A shuffle
// join that split on no heavy key may still shuffle more: plan.Place cannot
// know at plan time that no key will be heavy, so a Γ above it on its key
// exchanges instead of reducing in place.
func skewTwins(q nrc.Expr, mkQuery func(string) nrc.Expr, env nrc.Env, inputs map[string]value.Bag, ests map[string]plan.TableEstimate, limit int64) (broadcast, light, backedOff bool, err error) {
	cfg, cst := diffConfig(true, false, ests, limit)
	for _, twins := range [][2]runner.Strategy{{runner.StandardSkew, runner.Standard}, {runner.ShredSkew, runner.Shred}} {
		var got [2]value.Bag
		var res [2]*runner.Result
		for i, strat := range twins {
			cq, cerr := runner.CompileStep(mkQuery("R"), env, strat, cfg, cst, "Q")
			if cerr != nil {
				return false, false, false, fmt.Errorf("%s (analyzed) does not compile: %v\n%s", strat, cerr, nrc.Print(q))
			}
			res[i] = runner.ExecuteBags(context.Background(), []*runner.Compiled{cq}, inputs, runner.NewRunContext(cfg), runner.ExecOptions{Analysis: plan.NewAnalysis()})
			if res[i].Failed() {
				return false, false, false, fmt.Errorf("%s (analyzed) failed: %v\n%s", strat, res[i].Err, nrc.Print(q))
			}
			if got[i], err = nestedOutput(cq, res[i]); err != nil {
				return false, false, false, fmt.Errorf("%s (analyzed): %v\n%s", strat, err, nrc.Print(q))
			}
		}
		heavy, split := false, false
		var walk func(op plan.Op)
		walk = func(op plan.Op) {
			for _, ch := range op.Children() {
				walk(ch)
			}
			ns := res[0].Analyze.Lookup(op)
			if ns == nil {
				return // never ran
			}
			heavy = heavy || ns.Heavy != nil && ns.Heavy.Keys > 0
			// A combined Γ+/dedup whose source partitions shipped a row per
			// row backed off: no partition's keys repeated.
			if in := ns.CombinedIn.Load(); in > 0 && in == ns.CombinedOut.Load() {
				backedOff = true
			}
			split = split || ns.Heavy != nil
			if j, ok := op.(*plan.Join); ok && len(j.LCols) > 0 && j.Cost != nil && j.Cost.Method == plan.JoinBroadcast {
				if ns.Heavy != nil || j.KeepSplit || j.Placed != [2]bool{} {
					err = fmt.Errorf("%s splits a broadcast join (heavy %v, split kept %t, placed %v):\n%s", twins[0], ns.Heavy, j.KeepSplit, j.Placed, j.Describe())
				}
				broadcast = true
			}
		}
		for _, cq := range res[0].Program() {
			for _, st := range cq.Stmts {
				walk(st.Plan)
			}
		}
		switch {
		case err != nil:
			return false, false, false, fmt.Errorf("%v\n%s", err, nrc.Print(q))
		case heavy:
			continue
		case !bitIdentical(got[0], got[1]):
			return false, false, false, fmt.Errorf("%s found no heavy key yet answers apart from %s\n got: %s\nwant: %s\n%s", twins[0], twins[1], value.Format(got[0]), value.Format(got[1]), nrc.Print(q))
		case !split && res[0].Metrics.ShuffleBytes != res[1].Metrics.ShuffleBytes:
			return false, false, false, fmt.Errorf("%s split nothing yet shuffles %dB, %s %dB\n%s", twins[0], res[0].Metrics.ShuffleBytes, twins[1], res[1].Metrics.ShuffleBytes, nrc.Print(q))
		}
		light = true
	}
	return broadcast, light, backedOff, nil
}

// stitchSeen tallies one seed's stitching checks for the vacuity floors:
// label pairs the comparator resolved, those of them through a label demanded
// of a deferred dictionary, the deepest level stitched, limited reads that
// demanded fewer input rows than the deferred dictionaries they read, and
// limited reads that demanded rows of a deferred statement whose label is
// minted from a flat input's columns, and of one holding a ⋈ or a Γ.
type stitchSeen struct{ resolved, demandTies, depth, demandedFewer, minted, wide int }

// checkStitch holds the rows a shredded route stitches from its shredded
// output to the reference evaluator's answer: top(k), then top(0), equal the
// first rows of want in the canonical order (value.Compare) row by row — bags
// as multisets, since a stitched bag lists its elements in the dictionary's
// order — with the total len(want). Each read's reply, streamed from the
// dictionaries, is the bytes the encoder writes over the stitched rows. The
// limited reads come first, before a full read forces what the run deferred.
func checkStitch(res *runner.Result, want value.Bag, k int, seen *stitchSeen) error {
	sorted := slices.Clone(want)
	slices.SortStableFunc(sorted, value.Compare)
	for _, limit := range []int{k, 0} {
		got, total, s, err := runner.StitchTop(res, limit)
		if err != nil {
			return fmt.Errorf("stitched top(%d): %v", limit, err)
		}
		wantTop := sorted
		if limit > 0 && limit < len(sorted) {
			wantTop = sorted[:limit]
		}
		if total != len(want) || len(got) != len(wantTop) {
			return fmt.Errorf("stitched top(%d): %d of %d rows, the oracle %d of %d", limit, len(got), total, len(wantTop), len(want))
		}
		for i := range got {
			if !value.Equal(value.Tuple(got[i]), wantTop[i]) {
				return fmt.Errorf("stitched top(%d) row %d is %s, the oracle's %s",
					limit, i, value.Format(value.Tuple(got[i])), value.Format(wantTop[i]))
			}
		}
		seen.resolved += s.Resolved
		seen.demandTies += s.DemandTies
		seen.depth = max(seen.depth, s.Depth)
		if s.Demanded > 0 && s.Demanded < s.Held {
			seen.demandedFewer++
		}
		if limit > 0 {
			seen.minted += s.MintedRows
			seen.wide += s.WideRows
		}
		streamed, collected, err := runner.ReplyTwoWays(res, limit)
		if err != nil {
			return fmt.Errorf("reply(%d): %v", limit, err)
		}
		if !bytes.Equal(streamed, collected) {
			return fmt.Errorf("reply(%d) streamed from the dictionaries\n%s\nthe stitched rows encoded\n%s", limit, streamed, collected)
		}
	}
	return nil
}

// stagesAddUp holds a run's per-stage shuffled bytes to its run-wide total.
func stagesAddUp(res *runner.Result) error {
	var staged int64
	for _, sw := range res.Metrics.StageWall {
		staged += sw.ShuffleBytes
	}
	if staged != res.Metrics.ShuffleBytes {
		return fmt.Errorf("stages record %dB shuffled, the run %dB: %+v", staged, res.Metrics.ShuffleBytes, res.Metrics.StageWall)
	}
	return nil
}

// nestKeyCols counts the grouping columns of every Γ the compilation runs, and
// reports whether one of them sits above an addIndex.
func nestKeyCols(cq *runner.Compiled) (n int, overID bool) {
	var walk func(plan.Op) (hasID bool)
	walk = func(op plan.Op) (hasID bool) {
		_, hasID = op.(*plan.AddIndex)
		for _, ch := range op.Children() {
			hasID = walk(ch) || hasID
		}
		if nest, ok := op.(*plan.Nest); ok {
			n += len(nest.GroupCols)
			overID = overID || hasID
		}
		return hasID
	}
	for _, st := range cq.Stmts {
		walk(st.Plan)
	}
	return n, overID
}

// fusionOf counts, over the plans the compilation runs, the joins that write
// their projection (plan.Fuse folded the π above them) and the π/ext nodes.
func fusionOf(cq *runner.Compiled) (fusedJoins, narrowOps int) {
	var walk func(plan.Op)
	walk = func(op plan.Op) {
		switch x := op.(type) {
		case *plan.Join:
			if x.Outs != nil {
				fusedJoins++
			}
		case *plan.Project, *plan.Extend:
			narrowOps++
		}
		for _, ch := range op.Children() {
			walk(ch)
		}
	}
	for _, st := range cq.Stmts {
		walk(st.Plan)
	}
	return fusedJoins, narrowOps
}

// boundReuse reports whether the plans a run ran skip an exchange over an
// input dictionary of env bound placed on its label — a placed join side or
// BagToDict, or a local Γ/dedup, above a Scan of one marked placed — whether
// a Γ or dedup reduces in place above any placed Scan, and whether a join on
// label columns has both sides placed over placed Scans of env's shredded
// inputs, so it moves nothing.
func boundReuse(prog []*runner.Compiled, env nrc.Env) (overDict, overScan, labelLocal bool) {
	isDict := func(name string) bool {
		for in := range env {
			if strings.HasPrefix(name, in+"__") && name != shred.MatName(in, nil) {
				return true
			}
		}
		return false
	}
	// below reports whether op's subtree scans a placed input dictionary, and
	// whether it scans anything placed.
	var below func(plan.Op) (dict, any bool)
	below = func(op plan.Op) (dict, any bool) {
		if s, ok := op.(*plan.Scan); ok && s.Placed != nil {
			return isDict(s.Input), true
		}
		for _, c := range op.Children() {
			d, a := below(c)
			dict, any = dict || d, any || a
		}
		return dict, any
	}
	var walk func(plan.Op)
	walk = func(op plan.Op) {
		switch x := op.(type) {
		case *plan.Join:
			onScans := len(x.LCols) > 0 && nrc.TypesEqual(x.L.Columns()[x.LCols[0]].Type, nrc.LabelT)
			for i, c := range x.Children() {
				d, a := below(c)
				if x.Placed[i] && d {
					overDict = true
				}
				onScans = onScans && x.Placed[i] && a
			}
			labelLocal = labelLocal || onScans
		case *plan.BagToDict:
			if d, _ := below(x.In); x.Placed && d {
				overDict = true
			}
		case *plan.Nest, *plan.DedupOp:
			if nestLocal(x) != nil {
				d, a := below(op.Children()[0])
				overDict, overScan = overDict || d, overScan || a
			}
		}
		for _, c := range op.Children() {
			walk(c)
		}
	}
	for _, cq := range prog {
		for _, st := range cq.Stmts {
			walk(st.Plan)
		}
	}
	return overDict, overScan, labelLocal
}

// nestLocal is the Local mark of a Γ or dedup.
func nestLocal(op plan.Op) []int {
	switch x := op.(type) {
	case *plan.Nest:
		return x.Local
	case *plan.DedupOp:
		return x.Local
	}
	return nil
}

// exchangesAsPlanned checks a run against the exchange decisions plan.Place
// left on its plans. Every Scan marked placed over an input bound from inputs
// over parts partitions reads rows that lie where each of its keys says: a
// skipped exchange is sound only then. Every Γ/dedup marked local ran its
// reduce stage and no exchange stage, every unmarked one ran both. Every
// BagToDict ran its exchange iff it is not placed. Every keyed join ran as one
// shuffle join (join#k, with join#k/L and join#k/R exchanges) or one
// broadcast join (bjoin#k, no exchange): a shuffle join exchanged exactly the
// sides its plan did not place; a join whose Cost says shuffle ran as one, one
// that says broadcast did not, and one without a Cost (the executor decides)
// may run as either. It returns how many Γ/dedup were marked local and how
// many join sides placed.
func exchangesAsPlanned(prog []*runner.Compiled, res *runner.Result, inputs map[string]value.Bag, parts int) (local, placed, combined int, err error) {
	if err := placedAsClaimed(prog, inputs, parts); err != nil {
		return 0, 0, 0, err
	}
	var reduces, dicts, dictsPlaced, joins int
	var must, may [4]int // keyed joins that shuffle (or may), by the sides they exchange: 1 L, 2 R
	var walk func(plan.Op)
	walk = func(op plan.Op) {
		switch x := op.(type) {
		case *plan.Nest:
			reduces++
			if x.Local != nil {
				local++
			}
			if x.Combine {
				combined++
			}
		case *plan.DedupOp:
			reduces++
			if x.Local != nil {
				local++
			}
			if x.Combine {
				combined++
			}
		case *plan.BagToDict:
			dicts++
			if x.Placed {
				dictsPlaced++
			}
		case *plan.Join:
			if len(x.LCols) == 0 {
				break
			}
			joins++
			sides := 0
			for i, p := range x.Placed {
				if p {
					placed++
				} else {
					sides |= 1 << i
				}
			}
			switch {
			case x.Cost == nil:
				may[sides]++
			case x.Cost.Method == plan.JoinShuffle:
				must[sides]++
			}
		}
		for _, ch := range op.Children() {
			walk(ch)
		}
	}
	for _, cq := range prog {
		for _, st := range cq.Stmts {
			walk(st.Plan)
		}
	}
	// Stage names are kind#seq, followed by "/reduce" for a reduce and by
	// "/L" or "/R" for a join side's exchange (exec.wideStage).
	var reduced, exchanged, combinedRun, dictExchanged, joinsRun int
	ran := map[string]int{} // shuffle joins, by the sides they exchanged
	for _, sw := range res.Metrics.StageWall {
		kind, rest, _ := strings.Cut(sw.Stage, "#")
		seq, side, _ := strings.Cut(rest, "/")
		switch {
		case kind == "nest" || kind == "dedup":
			switch side {
			case "reduce":
				reduced++
			case "combine":
				combinedRun++
			default:
				exchanged++
			}
		case kind == "bagToDict":
			dictExchanged++
		case kind == "bjoin":
			joinsRun++
		case kind == "join" && side == "":
			joinsRun++
			ran[seq] |= 0
		case kind == "join":
			ran[seq] |= map[string]int{"L": 1, "R": 2}[side]
		}
	}
	if reduced != reduces || exchanged != reduces-local || combinedRun != combined {
		return local, placed, combined, fmt.Errorf("%d Γ/dedup, %d of them marked local and %d combined, ran %d reduces, %d exchanges and %d combines", reduces, local, combined, reduced, exchanged, combinedRun)
	}
	if dictExchanged != dicts-dictsPlaced {
		return local, placed, combined, fmt.Errorf("%d BagToDict, %d of them placed, ran %d exchanges", dicts, dictsPlaced, dictExchanged)
	}
	if joinsRun != joins {
		return local, placed, combined, fmt.Errorf("%d keyed joins ran as %d joins", joins, joinsRun)
	}
	for _, sides := range ran {
		switch {
		case must[sides] > 0:
			must[sides]--
		case may[sides] > 0:
			may[sides]--
		default:
			return local, placed, combined, fmt.Errorf("a shuffle join exchanged sides %b, which no join planned to", sides)
		}
	}
	if must != [4]int{} {
		return local, placed, combined, fmt.Errorf("joins planned to shuffle exchanging sides 0-3 %v ran as broadcasts", must)
	}
	return local, placed, combined, nil
}

// placedAsClaimed checks that every Scan prog marks placed over an input
// component bound from inputs over parts partitions reads rows hash-placed on
// each of the keys the Scan lists: every row of partition p hashes to p over
// each of them.
func placedAsClaimed(prog []*runner.Compiled, inputs map[string]value.Bag, parts int) error {
	comp, _, err := runner.BindBags(prog, inputs, parts)
	if err != nil {
		return err
	}
	var bad error
	var walk func(plan.Op)
	walk = func(op plan.Op) {
		if s, ok := op.(*plan.Scan); ok && s.Placed != nil && comp.Placed[s.Input] != nil {
			for p, rows := range comp.Placed[s.Input].Whole().Parts {
				for _, r := range rows {
					for _, k := range s.Placed {
						if h := value.HashCols(r, k); h%uint64(parts) != uint64(p) && bad == nil {
							bad = fmt.Errorf("Scan %s is placed on %v, but its row %s lies in partition %d of %d, its key hashes to %d", s.Input, s.Placed, value.Format(value.Tuple(r)), p, parts, h%uint64(parts))
						}
					}
				}
			}
		}
		for _, c := range op.Children() {
			walk(c)
		}
	}
	for _, cq := range prog {
		for _, st := range cq.Stmts {
			walk(st.Plan)
		}
	}
	return bad
}

// errSkip marks an uncompilable fuzz-generated query (tolerated only in the
// fuzz target; the curated seeds of TestDifferentialOracle must all compile).
var errSkip = fmt.Errorf("skip")

// seedBytes derives a deterministic byte stream per seed: byte i is the low
// byte of splitmix64 over (seed, i), so the bytes of one seed vary
// independently (TestSeedBytesMixCoins).
func seedBytes(seed int) []byte {
	data := make([]byte, 96)
	for i := range data {
		x := (uint64(seed)<<32 | uint64(i)) + 0x9e3779b97f4a7c15
		x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
		x = (x ^ x>>27) * 0x94d049bb133111eb
		data[i] = byte(x ^ x>>31)
	}
	return data
}

// TestSeedBytesMixCoins: a draw of the generator does not decide the draws
// after it. Across the oracle's seeds, the coin at every draw position but the
// first takes both values beside both values of the first draw's coin.
func TestSeedBytesMixCoins(t *testing.T) {
	for i := 1; i < len(seedBytes(0)); i++ {
		var seen [2][2]bool
		for seed := range 300 {
			g := &dgen{data: seedBytes(seed)}
			first := g.coin()
			g.i = i
			seen[b2i(first)][b2i(g.coin())] = true
		}
		if seen != [2][2]bool{{true, true}, {true, true}} {
			t.Fatalf("draw %d: (first coin, its coin) combinations seen %v, want all four", i, seen)
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestDifferentialOracle is the headline soundness gate: 300 generated
// queries × (5 strategies + AUTO) × {full, full without index flags, ablated}, every
// run compared against the reference evaluator — a shredded run read both
// ways, stitched and unshredded (nestedOutput). Runs under -race in CI.
func TestDifferentialOracle(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 60
	}
	var total diffCounts
	before := metrics.Values()
	for seed := 0; seed < n; seed++ {
		c, err := runDifferential(seedBytes(seed), true)
		total.add(c)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	after := metrics.Values()
	// The harness must actually exercise the optimizer, not vacuously pass
	// on plans it never changes.
	if total.optimized < n/4 {
		t.Fatalf("only %d of %d runs over %d seeds changed a plan — generator no longer exercises the optimizer", total.optimized, total.runs, n)
	}
	// Nor may a predicate stop higher than it did before Γ's outer attributes
	// became carried columns (8407 crossings then, over the seeds and the
	// eight strategies of the time; these seeds crossed 8667 times). Two of
	// those strategies, SHRED+UNSHRED and SHRED+UNSHRED-SKEW, compiled
	// SHRED's and SHRED-SKEW's plans again, 2512 of the 8667 crossings: the
	// six strategies left cross 6155 times on the same seeds, and the floor
	// drops by the 2512 repeats, keeping its margin.
	if n == 300 && total.pushed < 8407-2512 {
		t.Fatalf("%d predicate × operator crossings over %d seeds, 8407-2512 before Γ was keyed by the IDs", total.pushed, n)
	}
	// And pruning must actually reach through Γ: wherever the ablated plans
	// group above an addIndex — by every flat column — the full plans group by
	// fewer. (The generator draws a nested head in 52 of the 300 seeds.)
	if total.narrowed < total.nested || total.nested < n/8 {
		t.Fatalf("%d of %d seeds group above an addIndex and %d of those key the Γ by fewer columns than their NoColumnPruning arm — the narrowing is no longer exercised", total.nested, n, total.narrowed)
	}
	// And fusion must actually fold projections into joins (the ablated arm
	// holding none is checked per run) and compose π/ext chains.
	if total.fused < n/4 || total.composed < n/4 {
		t.Fatalf("%d of %d seeds run a join that writes its projection, %d hold fewer π/ext than their NoColumnPruning arm — plan.Fuse is no longer exercised", total.fused, n, total.composed)
	}
	// And placement must actually let Γ/dedup reduce in place and join sides
	// skip their exchange (each run checks the decisions against the stages it
	// ran, and that SPARK-SQL skips none). 48 seeds placed a join side when
	// placement became a plan property, all in the since-deleted unshred
	// plan. The matrix's own joins on a Γ's key place one on 124 of its
	// 300 × 8 seed × strategy pairs of the time, counted apart from the grouped-join arm,
	// which places one in every seed; the pairs, not the seeds, notice
	// placement lost on some routes only.
	if total.local < n/8 {
		t.Fatalf("%d of %d seeds reduce a Γ/dedup in place on some strategy's full plans — plan.Place is no longer exercised", total.local, n)
	}
	// And an exchanged Γ+ or dedup must actually combine on its source
	// partitions before it ships (SPARK-SQL combining fails its run).
	if total.combined < n/8 {
		t.Fatalf("%d of %d seeds combine a Γ+/dedup before its exchange on some strategy — the map-side combiner is no longer exercised", total.combined, n)
	}
	// And the sums must actually meet NULLs and reals whose float sum
	// depends on the order of its terms, which every route has to sum to
	// the oracle's bits.
	if total.nullSummed < n/8 || total.orderSummed < n/8 {
		t.Fatalf("%d of %d seeds sum a NULL and %d sum reals whose float sum depends on their order — the exact sums are no longer exercised", total.nullSummed, n, total.orderSummed)
	}
	if total.placed < n/3 {
		t.Fatalf("%d seed × strategy pairs over %d generated queries place a join side on their full plans — plan.Place no longer skips join exchanges", total.placed, n)
	}
	// And a shredded input must arrive placed: some shredded route skips an
	// exchange over an input dictionary, and some Γ or dedup reduces in place
	// over a placed Scan (SPARK-SQL doing either fails its run).
	if total.boundSkip < n/8 || total.scanLocal < n/8 {
		t.Fatalf("%d of %d seeds skip an exchange over a placed input dictionary and %d reduce a Γ/dedup in place over a placed Scan — bound placement is no longer exercised", total.boundSkip, n, total.scanLocal)
	}
	// Root-aligned shredding must leave label joins of two placed input
	// components that move nothing.
	if total.labelLocal < n/8 {
		t.Fatalf("%d of %d seeds join two root-aligned input components on a label with both sides placed — root alignment is no longer exercised", total.labelLocal, n)
	}
	// And a combiner must meet keys that do not repeat, and back off.
	if total.backedOff < n/8 || total.combined < n/8 {
		t.Fatalf("%d of %d seeds combined a Γ+/dedup and %d backed off — the combiner's back-off is no longer exercised", total.combined, n, total.backedOff)
	}
	// And a skew-aware run must actually meet keyed broadcast joins, which
	// it runs as plain joins (skewTwins checks each splits nothing), and
	// must actually find no heavy key, which makes it its twin.
	if total.skewBroadcast < n/8 || total.skewLight < n/8 {
		t.Fatalf("%d of %d seeds ran a keyed broadcast join skew-aware and %d found no heavy key — skew handling where it does not act is no longer exercised", total.skewBroadcast, n, total.skewLight)
	}
	if total.groupedPlaced < n/15 {
		t.Fatalf("%d of %d grouped-join programs place a join side on some strategy — plan.Place no longer skips join exchanges", total.groupedPlaced, n)
	}
	// And the index arm must actually plan index scans, not vacuously agree
	// because no generated predicate ever hit an indexed column.
	if total.indexed < n/4 {
		t.Fatalf("only %d runs planned an index scan across %d seeds — generator no longer exercises index planning", total.indexed, n)
	}
	// Every one of those scans is served by the index its statistics flag.
	if scans, fallbacks := after["index.scans"]-before["index.scans"], after["index.fallbacks"]-before["index.fallbacks"]; scans == 0 || fallbacks != 0 {
		t.Fatalf("%d index scans, %d fell back to full scans — a planned index was not bound", scans, fallbacks)
	}
	// And key-based shuffles must actually move rows, so the stage records
	// every run holds to the run's shuffled bytes (stagesAddUp) are metered.
	if total.shuffled < n/4 {
		t.Fatalf("only %d runs moved a row across an exchange over %d seeds — the wire-size meter is no longer exercised", total.shuffled, n)
	}
	// And the program arm must actually bind step outputs in shredded form,
	// not only as nested datasets.
	if total.shreddedSteps < n/10 {
		t.Fatalf("only %d programs over %d seeds read a step output on a shredded route — step-output binding is no longer exercised", total.shreddedSteps, n)
	}
	// And the reply path must actually stitch: order rows through a bag, and
	// build bags two levels down.
	if total.stitchResolved < n/8 || total.stitchDeep < n/8 {
		t.Fatalf("%d of %d seeds resolved a label inside the stitching comparator and %d stitched two nesting levels — stitching is no longer exercised", total.stitchResolved, n, total.stitchDeep)
	}
	// And limited reads must demand deferred dictionaries: fewer input rows
	// than a force runs, and labels the comparator reads to order rows.
	if total.stitchDemanded < n/8 || total.stitchDemandTie < n/8 {
		t.Fatalf("%d of %d seeds stitched a limited read from fewer input rows than its deferred dictionaries hold and %d resolved a tie through a demanded label — the demand path is no longer exercised", total.stitchDemanded, n, total.stitchDemandTie)
	}
	// And through more than a σ/π chain over a placed dictionary: a label
	// minted from a flat input's columns, and a join or an in-place Γ.
	if total.stitchMinted < n/8 || total.stitchWide < n/8 {
		t.Fatalf("%d of %d seeds demanded rows of a deferred statement whose label is minted from a flat input and %d of one holding a ⋈ or Γ — the label-closed rule is no longer exercised", total.stitchMinted, n, total.stitchWide)
	}
	t.Logf("%d seeds ran a keyed broadcast join skew-aware, %d matched their skew-unaware twin with no heavy key", total.skewBroadcast, total.skewLight)
	t.Logf("%d seeds joined two root-aligned input components on a label with both sides placed; %d backed off combining", total.labelLocal, total.backedOff)
	t.Logf("%d seeds stitched through a label comparison, %d two levels deep, %d demanded fewer rows than forcing runs, %d broke a tie on a demanded label, %d demanded through a minted label, %d through a ⋈ or Γ; %d index scans served", total.stitchResolved, total.stitchDeep, total.stitchDemanded, total.stitchDemandTie, total.stitchMinted, total.stitchWide, after["index.scans"]-before["index.scans"])
	t.Logf("%d queries × %d runs each agreed with the oracle; optimizer changed plans in %d runs (%d crossings); %d seeds grouped above an addIndex, %d keyed a Γ by the IDs; %d seeds fused a join and %d composed a chain; %d seeds reduced in place, %d combined; %d seeds summed a NULL, %d reals whose float sum depends on their order; %d seed × strategy pairs placed a join side (%d grouped-join programs); %d seeds skipped an exchange over a placed input dictionary, %d reduced in place over a placed Scan; %d runs planned index scans; %d runs moved rows across an exchange; %d programs read a shredded step output",
		n, total.runs/n, total.optimized, total.pushed, total.nested, total.narrowed, total.fused, total.composed, total.local, total.combined, total.nullSummed, total.orderSummed, total.placed, total.groupedPlaced, total.boundSkip, total.scanLocal, total.indexed, total.shuffled, total.shreddedSteps)
}

// TestAnalyzeStableAcrossRoutes re-runs a sampled subset of the differential
// seeds with per-operator instrumentation enabled, indexed and index-ablated,
// and checks that EXPLAIN ANALYZE is an observation, not an intervention: both
// arms still agree with the oracle, the root operator's measured actual_rows
// equals the oracle cardinality in both, and the analyzed explain text renders
// the runtime annotations.
func TestAnalyzeStableAcrossRoutes(t *testing.T) {
	step := 25
	if testing.Short() {
		step = 75
	}
	checked, measuredRoots := 0, 0
	for seed := 0; seed < 300; seed += step {
		data := seedBytes(seed)
		env := diffEnv()
		g := &dgen{data: data}
		inputs := g.dataset()
		limit := diffBroadcastLimits[g.n(len(diffBroadcastLimits))]
		chosen := g.chooseIndexes()
		queryAt := g.i
		summand := laterDraws(data, inputs)
		mkQuery := func() nrc.Expr {
			qg := &dgen{data: data, i: queryAt, root: "R", summand: summand}
			return qg.query()
		}

		want, err := oracleEval(mkQuery(), env, inputs)
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}
		ests := collectDiffStats(env, inputs)
		applyIndexes(ests, chosen)

		for _, noIdx := range []bool{false, true} {
			cfg, cst := diffConfig(true, noIdx, ests, limit)
			cq, cerr := runner.CompileStep(mkQuery(), env, runner.Standard, cfg, cst, "Q")
			if cerr != nil {
				t.Fatalf("seed %d (noidx=%t): compile: %v", seed, noIdx, cerr)
			}
			a := plan.NewAnalysis()
			res := runner.ExecuteBags(context.Background(), []*runner.Compiled{cq}, inputs,
				runner.NewRunContext(cfg), runner.ExecOptions{Analysis: a})
			if res.Failed() {
				t.Fatalf("seed %d (noidx=%t): %v", seed, noIdx, res.Err)
			}
			got, gerr := nestedOutput(cq, res)
			if gerr != nil {
				t.Fatalf("seed %d (noidx=%t): %v", seed, noIdx, gerr)
			}
			if !bitIdentical(got, want) {
				t.Fatalf("seed %d (noidx=%t): instrumented run diverges from the oracle\n got: %s\nwant: %s",
					seed, noIdx, value.Format(got), value.Format(want))
			}
			// Only measured roots are held to the oracle cardinality;
			// a plan whose root the executor never instrumented (e.g. a
			// pure leaf) renders without the check.
			if ns := res.Analyze.Lookup(cq.OutputPlan()); ns != nil {
				if actual := ns.RowsOut.Load(); actual != int64(len(want)) {
					t.Fatalf("seed %d (noidx=%t): root actual_rows=%d, oracle cardinality=%d",
						seed, noIdx, actual, len(want))
				}
				measuredRoots++
			}
			if text := res.ExplainAnalyze(); !strings.Contains(text, "[actual_rows=") {
				t.Fatalf("seed %d (noidx=%t): analyzed explain carries no runtime annotation:\n%s",
					seed, noIdx, text)
			}
			checked++
		}
	}
	if measuredRoots < checked/2 {
		t.Fatalf("only %d/%d runs had a measured root operator — instrumentation no longer covers the generated plans", measuredRoots, checked)
	}
	t.Logf("%d instrumented runs matched the oracle; %d had measured roots with stable actual_rows", checked, measuredRoots)
}

// FuzzDifferential lets the fuzzer drive the generator byte stream directly.
// Queries the generator derives are well-typed by construction; any oracle
// divergence is a real bug.
func FuzzDifferential(f *testing.F) {
	f.Add(seedBytes(0))
	f.Add(seedBytes(7))
	f.Add(seedBytes(42))
	f.Add([]byte{})
	f.Add([]byte{255, 1, 254, 3, 252, 7, 248, 15, 240, 31, 224, 63, 192, 127, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := runDifferential(data, false); err != nil {
			if err == errSkip {
				t.Skip("generated query outside the compilable fragment")
			}
			t.Fatal(err)
		}
	})
}
