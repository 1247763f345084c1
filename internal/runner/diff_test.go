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
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/plan"
	"github.com/trance-go/trance/internal/runner"
	"github.com/trance-go/trance/internal/shred"
	"github.com/trance-go/trance/internal/stats"
	"github.com/trance-go/trance/internal/value"
)

// diffEnv is the fixed input environment of the generated queries: a
// two-level nested relation R (with an inner bag per item) and a flat
// relation S to join with.
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
		R = append(R, value.Tuple{a, g.str(), g.realv(), items})
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
	// A selective point guard on R.a (indexed in ~3/4 of the seeds): the
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

// query builds one top-level query: a plain flat or nested comprehension, or
// a root aggregate / dedup / union over flat comprehensions.
func (g *dgen) query() nrc.Expr {
	switch g.n(8) {
	case 0:
		return nrc.SumByOf(g.comp(false), []string{"f1", "f3"}, []string{"f2"})
	case 1:
		return nrc.SumByOf(g.comp(false), []string{"f3"}, []string{"f2"})
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
		return g.comp(false)
	}
}

// diffConfig is the cluster sizing for differential runs: small enough to be
// fast, parallel enough to exercise shuffles. The full configuration carries
// collected statistics and a generator-chosen broadcast limit; the ablated
// configuration disables column pruning, the rule-based optimizer and the cost
// model (so every seed also runs the plans as the unnesting stage wrote them,
// Γ keyed by every flat column, and the un-annotated plans Auto degrades to
// Standard on).
func diffConfig(full, noIdx bool, ests map[string]plan.TableEstimate, limit int64) runner.Config {
	cfg := runner.DefaultConfig()
	cfg.Parallelism = 3
	cfg.NoColumnPruning = !full
	cfg.NoPredicatePushdown = !full
	cfg.NoCostModel = !full
	cfg.NoIndexScan = noIdx
	cfg.Stats = ests
	cfg.BroadcastLimit = limit
	return cfg
}

// diffIndexCols are the scalar columns the generator may index: every
// top-level scalar of R and S (inner-bag columns are not indexable).
var diffIndexCols = []struct{ ds, col string }{
	{"R", "a"}, {"R", "b"}, {"R", "c"}, {"S", "k"}, {"S", "name"},
}

// chooseIndexes draws the seed's index configuration: each top-level scalar
// column independently gains a hash index, an ordered index, both, or none.
// Returns the flag map to stamp into the collected statistics.
func (g *dgen) chooseIndexes() map[string]map[string][2]bool {
	out := map[string]map[string][2]bool{}
	for _, ic := range diffIndexCols {
		h, o := g.coin(), g.coin()
		if !h && !o {
			continue
		}
		if out[ic.ds] == nil {
			out[ic.ds] = map[string][2]bool{}
		}
		out[ic.ds][ic.col] = [2]bool{h, o}
	}
	return out
}

// applyIndexes stamps the chosen index flags into the collected statistics —
// the same shape a catalog session's resolve produces — and publishes the
// shredded-route estimate aliases so IndexScan conversion happens on the
// shredded top components too.
func applyIndexes(ests map[string]plan.TableEstimate, chosen map[string]map[string][2]bool) {
	for ds, cols := range chosen {
		te, ok := ests[ds]
		if !ok {
			continue
		}
		for col, kinds := range cols {
			ce := te.Cols[col]
			ce.IndexHash, ce.IndexOrdered = kinds[0], kinds[1]
			te.Cols[col] = ce
		}
		ests[shred.MatName(ds, nil)] = te
	}
}

// collectDiffStats gathers per-input statistics the way a catalog session
// would, sized to the differential cluster.
func collectDiffStats(env nrc.Env, inputs map[string]value.Bag) map[string]plan.TableEstimate {
	ests := map[string]plan.TableEstimate{}
	for name, b := range inputs {
		bt := env[name].(nrc.BagType)
		ests[name] = stats.Collect(b, bt, stats.Options{Parallelism: 3}).Estimate()
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

// nestedOutput converts a strategy's result dataset back to the nested value
// the oracle produces: rows as tuples for standard and unshredding routes,
// value-unshredding of the materialized components for the shredded routes
// that stop at the dictionary representation (SHRED, SHRED-SKEW). cq.Strategy
// is the resolved route, so AUTO runs land in the right branch too.
func nestedOutput(cq *runner.Compiled, res *runner.Result) (value.Bag, error) {
	if cq.Strategy.IsShredded() && !cq.Strategy.Unshreds() {
		top := make([]value.Tuple, 0)
		for _, r := range res.Shredded[cq.Mat.TopName].Collect() {
			top = append(top, value.Tuple(r))
		}
		dicts := map[string][]value.Tuple{}
		for _, d := range cq.Mat.Dicts {
			rows := make([]value.Tuple, 0)
			for _, r := range res.Shredded[d.Name].Collect() {
				rows = append(rows, value.Tuple(r))
			}
			dicts[strings.Join(d.Path, "_")] = rows
		}
		return shred.UnshredValue(top, dicts, cq.Mat.OutType)
	}
	out := make(value.Bag, 0)
	for _, r := range res.Output.Collect() {
		out = append(out, value.Tuple(r))
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
	typed     int // runs that metered at least one typed-encoding shuffle buffer
	fused     int // seeds with a join writing its projection on some strategy's full plans
	composed  int // seeds where some strategy's full plans hold fewer π/ext than its ablated plans
	local     int // seeds where some strategy's full plans reduce a Γ/dedup in place
	// shreddedSteps counts program runs whose second step read the first
	// step's output in shredded form.
	shreddedSteps int
}

func (c *diffCounts) add(o diffCounts) {
	c.runs += o.runs
	c.optimized += o.optimized
	c.pushed += o.pushed
	c.nested += o.nested
	c.narrowed += o.narrowed
	c.indexed += o.indexed
	c.typed += o.typed
	c.fused += o.fused
	c.composed += o.composed
	c.local += o.local
	c.shreddedSteps += o.shreddedSteps
}

// runDifferential executes one generated query under the full
// strategy × {full, full+NoIndexScan, ablated} matrix and compares each run
// against the oracle (the index arm only splits full runs: ablated runs skip
// annotation and so never plan index scans). The query is regenerated from
// the same bytes for every compilation (compilation annotates ASTs in place).
// Returns the tallies, or an error describing the first divergence.
func runDifferential(data []byte, strict bool) (n diffCounts, err error) {
	env := diffEnv()
	g := &dgen{data: data}
	inputs := g.dataset()
	limit := diffBroadcastLimits[g.n(len(diffBroadcastLimits))]
	chosen := g.chooseIndexes()
	queryAt := g.i
	mkQuery := func(root string) nrc.Expr {
		qg := &dgen{data: data, i: queryAt, root: root}
		return qg.query()
	}
	q := mkQuery("R")

	want, err := oracleEval(q, env, inputs)
	if err != nil {
		return n, fmt.Errorf("generated query fails Check (generator bug): %v\n%s", err, nrc.Print(q))
	}
	ests := collectDiffStats(env, inputs)
	applyIndexes(ests, chosen)

	nested, narrowed, fused, composed, local := false, false, false, false, false
	for _, strat := range diffStrategies {
		keyCols := map[bool]int{} // Γ key columns of the strategy's plans, by arm
		narrowOps := map[bool]int{}
		for _, full := range []bool{true, false} {
			noIdxArms := []bool{false}
			if full {
				noIdxArms = []bool{false, true}
			}
			for _, noIdx := range noIdxArms {
				cfg := diffConfig(full, noIdx, ests, limit)
				cq, cerr := runner.Compile(mkQuery("R"), env, strat, cfg)
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
							"%s planned %d index scans with NoIndexScan set\n%s", strat, cq.Idx.Planned, nrc.Print(q))
					}
					n.indexed++
				}
				res := runner.ExecuteInputs(context.Background(), []*runner.Compiled{cq}, inputs, runner.NewRunContext(cfg, cq.Strategy), runner.ExecOptions{})
				if res.Failed() {
					return n, fmt.Errorf("%s (full=%t, noidx=%t) failed: %v\n%s",
						strat, full, noIdx, res.Err, nrc.Print(q))
				}
				if res.Metrics.Exchange.ColumnarBuffers > 0 {
					n.typed++
				}
				marked, lerr := localReduces([]*runner.Compiled{cq}, res)
				if lerr == nil && marked > 0 && strat == runner.SparkSQLStyle {
					lerr = fmt.Errorf("%d Γ/dedup reduce in place on the baseline that reuses no placement", marked)
				}
				if lerr != nil {
					return n, fmt.Errorf("%s (full=%t, noidx=%t): %v\n%s", strat, full, noIdx, lerr, cq.Explain())
				}
				local = local || full && marked > 0
				got, gerr := nestedOutput(cq, res)
				if gerr != nil {
					return n, fmt.Errorf("%s (full=%t, noidx=%t) unshred: %v\n%s",
						strat, full, noIdx, gerr, nrc.Print(q))
				}
				if !value.Equal(got, want) {
					return n, fmt.Errorf(
						"%s (full=%t, noidx=%t, resolved %s, bcast=%d, idx-planned=%d) diverges from the nrc.Eval oracle\nquery:\n%s\ninputs: %s\n got: %s\nwant: %s\nexplain:\n%s",
						strat, full, noIdx, cq.Strategy, limit, cq.Idx.Planned, nrc.Print(q), value.Format(value.Tuple{inputs["R"], inputs["S"]}),
						value.Format(got), value.Format(want), cq.Explain())
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

	// The program arm: the same query as the second step of a two-step
	// program whose first step copies R, so the query reads a step output —
	// the nested dataset on standard routes, the shred.MatName components the
	// first step left bound on shredded ones — instead of a converted input.
	// The copy is the identity on bags, so the oracle value is unchanged.
	for _, strat := range diffStrategies {
		cfg := diffConfig(true, false, ests, limit)
		prog, cerr := runner.CompilePipeline([]runner.PipelineStep{
			{Name: "P", Query: nrc.ForIn("x", nrc.V("R"), nrc.SingOf(nrc.V("x")))},
			{Name: "Out", Query: mkQuery("P")},
		}, env, strat, cfg)
		if cerr != nil {
			if strict {
				return n, fmt.Errorf("%s program does not compile: %v\n%s", strat, cerr, nrc.Print(q))
			}
			return n, errSkip
		}
		last := prog[1]
		res := runner.ExecuteInputs(context.Background(), prog, inputs, runner.NewRunContext(cfg, last.Strategy), runner.ExecOptions{})
		if res.Failed() {
			return n, fmt.Errorf("%s program failed at step %d: %v\n%s", strat, res.FailedStep, res.Err, nrc.Print(q))
		}
		if _, lerr := localReduces(prog, res); lerr != nil {
			return n, fmt.Errorf("%s program: %v\n%s", strat, lerr, runner.Explain(prog))
		}
		got, gerr := nestedOutput(last, res)
		if gerr != nil {
			return n, fmt.Errorf("%s program unshred: %v\n%s", strat, gerr, nrc.Print(q))
		}
		if !value.Equal(got, want) {
			return n, fmt.Errorf(
				"%s program (resolved %s, bcast=%d) diverges from the nrc.Eval oracle\nquery over P := R:\n%s\ninputs: %s\n got: %s\nwant: %s\nexplain:\n%s",
				strat, last.Strategy, limit, nrc.Print(q), value.Format(value.Tuple{inputs["R"], inputs["S"]}),
				value.Format(got), value.Format(want), runner.Explain(prog))
		}
		if last.Strategy.IsShredded() {
			n.shreddedSteps++
		}
		n.runs++
	}
	return n, nil
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

// localReduces checks a run against the marks plan.Colocate left on its plans:
// every Γ/dedup marked local ran its reduce stage and no exchange stage, every
// unmarked one ran both. It returns how many were marked.
func localReduces(prog []*runner.Compiled, res *runner.Result) (marked int, err error) {
	var all int
	var walk func(plan.Op)
	walk = func(op plan.Op) {
		var local []int
		switch x := op.(type) {
		case *plan.Nest:
			local = x.Local
		case *plan.DedupOp:
			local = x.Local
		default:
			for _, ch := range op.Children() {
				walk(ch)
			}
			return
		}
		all++
		if local != nil {
			marked++
		}
		walk(op.Children()[0])
	}
	for _, cq := range prog {
		for _, st := range cq.Stmts {
			walk(st.Plan)
		}
	}
	// Stage names are kind#seq, a reduce's with "/reduce" after (exec.wideStage).
	var exchanges, reduces int
	for _, sw := range res.Metrics.StageWall {
		kind, rest, _ := strings.Cut(sw.Stage, "#")
		switch {
		case kind != "nest" && kind != "dedup":
		case strings.HasSuffix(rest, "/reduce"):
			reduces++
		default:
			exchanges++
		}
	}
	if reduces != all || exchanges != all-marked {
		return marked, fmt.Errorf("%d Γ/dedup, %d of them marked local, ran %d reduces and %d exchanges", all, marked, reduces, exchanges)
	}
	return marked, nil
}

// errSkip marks an uncompilable fuzz-generated query (tolerated only in the
// fuzz target; the curated seeds of TestDifferentialOracle must all compile).
var errSkip = fmt.Errorf("skip")

// seedBytes derives a deterministic byte stream per seed (same scheme as the
// parser fuzz seeds, longer so deep queries draw enough entropy).
func seedBytes(seed int) []byte {
	data := make([]byte, 96)
	for i := range data {
		data[i] = byte((seed*131 + i*17 + i*i*3) % 256)
	}
	return data
}

// TestDifferentialOracle is the headline soundness gate: 300 generated
// queries × (7 strategies + AUTO) × {full, full+NoIndexScan, ablated}, every
// run compared against the reference evaluator. Runs under -race in CI.
func TestDifferentialOracle(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 60
	}
	var total diffCounts
	for seed := 0; seed < n; seed++ {
		c, err := runDifferential(seedBytes(seed), true)
		total.add(c)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	// The harness must actually exercise the optimizer, not vacuously pass
	// on plans it never changes.
	if total.optimized < n/4 {
		t.Fatalf("only %d of %d runs over %d seeds changed a plan — generator no longer exercises the optimizer", total.optimized, total.runs, n)
	}
	// Nor may a predicate stop higher than it did before Γ's outer attributes
	// became carried columns (8407 crossings at PR 21 over these seeds).
	if n == 300 && total.pushed < 8407 {
		t.Fatalf("%d predicate × operator crossings over %d seeds, 8407 before Γ was keyed by the IDs", total.pushed, n)
	}
	// And pruning must actually reach through Γ: wherever the ablated plans
	// group above an addIndex — by every flat column — the full plans group by
	// fewer. (The generator draws a nested head in 48 of the 300 seeds.)
	if total.narrowed < total.nested || total.nested < n/8 {
		t.Fatalf("%d of %d seeds group above an addIndex and %d of those key the Γ by fewer columns than their NoColumnPruning arm — the narrowing is no longer exercised", total.nested, n, total.narrowed)
	}
	// And fusion must actually fold projections into joins (the ablated arm
	// holding none is checked per run) and compose π/ext chains.
	if total.fused < n/4 || total.composed < n/4 {
		t.Fatalf("%d of %d seeds run a join that writes its projection, %d hold fewer π/ext than their NoColumnPruning arm — plan.Fuse is no longer exercised", total.fused, n, total.composed)
	}
	// And co-location must actually let Γ/dedup reduce in place (each run checks
	// the marks against the stages it ran, and that SPARK-SQL marks none).
	if total.local < n/8 {
		t.Fatalf("%d of %d seeds reduce a Γ/dedup in place on some strategy's full plans — plan.Colocate is no longer exercised", total.local, n)
	}
	// And the index arm must actually plan index scans, not vacuously agree
	// because no generated predicate ever hit an indexed column.
	if total.indexed < n/4 {
		t.Fatalf("only %d runs planned an index scan across %d seeds — generator no longer exercises index planning", total.indexed, n)
	}
	// And key-based shuffles must actually meter typed-encoding buffers, not
	// fall back to the boxed row walk on every generated query.
	if total.typed < n/4 {
		t.Fatalf("only %d runs metered a typed-encoding shuffle buffer over %d seeds — the wire-size meter is no longer exercised", total.typed, n)
	}
	// And the program arm must actually bind step outputs in shredded form,
	// not only as nested datasets.
	if total.shreddedSteps < n/10 {
		t.Fatalf("only %d programs over %d seeds read a step output on a shredded route — step-output binding is no longer exercised", total.shreddedSteps, n)
	}
	t.Logf("%d queries × %d runs each agreed with the oracle; optimizer changed plans in %d runs (%d crossings); %d seeds keyed a Γ by the IDs; %d seeds fused a join and %d composed a chain; %d seeds reduced in place; %d runs planned index scans; %d runs metered typed-encoding shuffle buffers; %d programs read a shredded step output",
		n, total.runs/n, total.optimized, total.pushed, total.narrowed, total.fused, total.composed, total.local, total.indexed, total.typed, total.shreddedSteps)
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
		mkQuery := func() nrc.Expr {
			qg := &dgen{data: data, i: queryAt, root: "R"}
			return qg.query()
		}

		want, err := oracleEval(mkQuery(), env, inputs)
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}
		ests := collectDiffStats(env, inputs)
		applyIndexes(ests, chosen)

		for _, noIdx := range []bool{false, true} {
			cfg := diffConfig(true, noIdx, ests, limit)
			cq, cerr := runner.Compile(mkQuery(), env, runner.Standard, cfg)
			if cerr != nil {
				t.Fatalf("seed %d (noidx=%t): compile: %v", seed, noIdx, cerr)
			}
			a := plan.NewAnalysis()
			res := runner.ExecuteInputs(context.Background(), []*runner.Compiled{cq}, inputs,
				runner.NewRunContext(cfg, cq.Strategy), runner.ExecOptions{Analysis: a})
			if res.Failed() {
				t.Fatalf("seed %d (noidx=%t): %v", seed, noIdx, res.Err)
			}
			got, gerr := nestedOutput(cq, res)
			if gerr != nil {
				t.Fatalf("seed %d (noidx=%t): %v", seed, noIdx, gerr)
			}
			if !value.Equal(got, want) {
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
