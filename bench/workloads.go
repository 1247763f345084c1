package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"sort"
	"strings"

	"github.com/trance-go/trance"
	"github.com/trance-go/trance/internal/ingest"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/tpch"
	"github.com/trance-go/trance/internal/value"
)

// workload is one traffic mix against one tranced configuration. Everything
// seeded is generated before the first cold start; the server receives only
// the generated requests.
type workload struct {
	name       string
	serverArgs []string
	clients    int
	kinds      []string
	// coldStarts is how many times a run launches the server; setup_s is
	// their median. At least five; more where one is short and so noisier.
	coldStarts int
	// cyclesPerSecond is how many cycles (one op of every kind) the reference
	// box completes per second; it turns -seconds into a fixed op count.
	cyclesPerSecond float64

	// setup lists the requests every cold start makes after /healthz and
	// before the first answers: uploads and index creation.
	setup func() []op
	// first lists one full-answer op per kind for a cold start.
	first func() []op
	// round lists each client's ops for one round of the given cycle count.
	// Every round of a run has the same kinds, counts and order.
	round func(cycles int) [][]op
	// vacuity fails the run when the timed window did not exercise what the
	// workload exists to exercise.
	vacuity func(before, after *serverCounters, opsPerKind []int) error

	// eng mirrors the server's catalog in this process, for the reference
	// answers and the in-process pass.
	eng *engine
	// inprocCycle lists one in-process cycle over the same inputs.
	inprocCycle func(i int) []inprocOp
	// heaviest names the kind whose query the Workers=1 comparison runs.
	heaviest *queryKind
	// skewShare is the share of join-input rows the skew detector routes to
	// the heavy side (analytic workloads only).
	skewKeys  int
	skewShare float64
	// probe points the layer probes at this workload's data.
	probe probeTarget
}

// workloadNames lists the workloads in reporting order.
var workloadNames = []string{"nested_analytic", "skewed_analytic", "adhoc_serve", "mutate_visible"}

// The request kinds of the two analytic workloads: prepared TPC-H routes.
var (
	nestedKinds = []analyticKind{
		{"f2n.standard", tpch.FlatToNested, "standard"},
		{"f2n.shred", tpch.FlatToNested, "shred"},
		{"f2n.shred-unshred", tpch.FlatToNested, "shred+unshred"},
		{"n2n.standard", tpch.NestedToNested, "standard"},
		{"n2n.shred", tpch.NestedToNested, "shred"},
		{"n2n.shred-unshred", tpch.NestedToNested, "shred+unshred"},
		{"n2f.standard", tpch.NestedToFlat, "standard"},
		{"n2f.shred", tpch.NestedToFlat, "shred"},
	}
	skewedKinds = []analyticKind{
		{"f2n.standard-skew", tpch.FlatToNested, "standard-skew"},
		{"f2n.shred-unshred-skew", tpch.FlatToNested, "shred+unshred-skew"},
		{"n2n.standard-skew", tpch.NestedToNested, "standard-skew"},
		{"n2n.shred-unshred-skew", tpch.NestedToNested, "shred+unshred-skew"},
		{"n2n.auto", tpch.NestedToNested, "auto"},
	}
	adhocKinds  = []string{"point_lookup", "fresh_text", "flat_selective", "nested_full", "selective_auto"}
	mutateKinds = []string{"append", "read_point", "read_nested", "delete", "read_gone"}
)

// allKindNames lists the request kinds of every workload; each has its own
// client.p50_ms.<kind> metric.
func allKindNames() []string {
	var names []string
	for _, k := range append(append([]analyticKind(nil), nestedKinds...), skewedKinds...) {
		names = append(names, k.name)
	}
	return append(append(names, adhocKinds...), mutateKinds...)
}

// newWorkload generates a workload's inputs and reference answers. quick
// shrinks the analytic and mutation workloads' data to smoke-test size.
func newWorkload(name string, seed int64, quick bool) (*workload, error) {
	customers := 300
	if quick {
		customers = 60
	}
	switch name {
	case "nested_analytic":
		return analyticWorkload(name, customers, 0, seed, nestedKinds, 6.6)
	case "skewed_analytic":
		return analyticWorkload(name, customers, 3, seed, skewedKinds, 5.4)
	case "adhoc_serve":
		return adhocWorkload(seed)
	case "mutate_visible":
		rows := mutateRows
		if quick {
			rows = 2000
		}
		return mutateWorkload(seed, rows)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// queryKind is a request kind that runs a query and returns rows.
type queryKind struct {
	idx      int
	name     string
	expr     nrc.Expr // over catalog dataset names
	strategy string   // CLI name sent with the request
	// want is the X-Trance-Strategy every reply must carry. Empty (auto) pins
	// whatever the first verified answer carried.
	want      string
	shredOnly bool   // the answer is a shredded top bag: compare cardinality only
	get       string // GET /query path prefix for prepared routes; "" posts text
	limit     int    // ?limit= of timed ops

	text     string
	elem     nrc.Type
	expected value.Bag
	rows     int // pinned by the first verified answer; -1 before
}

// resolve typechecks the kind's query against the engine's catalog and
// computes its reference answer with the tuple-at-a-time evaluator. Kinds
// sharing a query share the evaluation through memo.
func (k *queryKind) resolve(e *engine, memo map[string]value.Bag) error {
	k.rows = -1
	k.text = nrc.Print(k.expr)
	q := nrc.Copy(k.expr)
	t, err := nrc.Check(q, e.cat.Env())
	if err != nil {
		return fmt.Errorf("%s: %w", k.name, err)
	}
	bt, ok := t.(nrc.BagType)
	if !ok {
		return fmt.Errorf("%s: query type %s is not a bag", k.name, t)
	}
	k.elem = bt.Elem
	if b, ok := memo[k.text]; ok {
		k.expected = b
		return nil
	}
	inputs := map[string]trance.Bag{}
	for v := range nrc.FreeVars(q) {
		b, _, ok := e.cat.Data(v)
		if !ok {
			return fmt.Errorf("%s: no dataset %s", k.name, v)
		}
		inputs[v] = b
	}
	k.expected, _ = trance.LocalEval(q, inputs).(value.Bag)
	memo[k.text] = k.expected
	return nil
}

func (k *queryKind) path(limit int) string {
	q := fmt.Sprintf("strategy=%s&limit=%d", url.QueryEscape(k.strategy), limit)
	if k.get != "" {
		return k.get + "&" + q
	}
	return "/query?" + q
}

// op builds the kind's timed request. The check is what every timed op pays:
// status, total row count and the strategy that ran.
func (k *queryKind) op(limit int) op {
	o := op{kind: k.idx, method: "POST", path: k.path(limit), body: k.text}
	if k.get != "" {
		o.method, o.body = "GET", ""
	}
	o.check = func(r *reply) error {
		if r.status != 200 {
			return fmt.Errorf("status %d: %.200s", r.status, r.body)
		}
		rows, ok := topField(r.body, "rows")
		if !ok {
			return fmt.Errorf("reply has no rows field")
		}
		if k.rows >= 0 && int(rows) != k.rows {
			return fmt.Errorf("rows %d, want %d", int(rows), k.rows)
		}
		if k.want != "" && r.strategy != k.want {
			return fmt.Errorf("X-Trance-Strategy %q, want %q", r.strategy, k.want)
		}
		return nil
	}
	return o
}

// firstOp is the cold-start request: the whole answer (limit=0), compared as
// a multiset with the reference evaluator's.
func (k *queryKind) firstOp() op {
	o := k.op(0)
	o.verify = func(r *reply) error {
		var body struct {
			Rows    int             `json:"rows"`
			Results json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(r.body, &body); err != nil {
			return err
		}
		if body.Rows != len(k.expected) {
			return fmt.Errorf("rows %d, reference evaluator has %d", body.Rows, len(k.expected))
		}
		if !k.shredOnly {
			got, err := ingest.ReadJSONAs(bytes.NewReader(body.Results), k.elem)
			if err != nil {
				return fmt.Errorf("decode results: %w", err)
			}
			if !approxEqual(got, k.expected) {
				return fmt.Errorf("answer differs from the reference evaluator's (%d rows)", len(got))
			}
		}
		k.rows = body.Rows
		if k.want == "" {
			k.want = r.strategy
		}
		return nil
	}
	return o
}

// approxEqual is multiset equality with a relative tolerance on reals: the
// engine and the reference evaluator add the same terms in different orders.
func approxEqual(a, b value.Value) bool {
	switch x := a.(type) {
	case value.Bag:
		y, ok := b.(value.Bag)
		if !ok || len(x) != len(y) {
			return false
		}
		xs, ys := sortedBag(x), sortedBag(y)
		for i := range xs {
			if !approxEqual(xs[i], ys[i]) {
				return false
			}
		}
		return true
	case value.Tuple:
		y, ok := b.(value.Tuple)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !approxEqual(x[i], y[i]) {
				return false
			}
		}
		return true
	case float64:
		y, ok := b.(float64)
		return ok && math.Abs(x-y) <= 1e-9*math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
	}
	return value.Equal(a, b)
}

func sortedBag(b value.Bag) value.Bag {
	s := append(value.Bag(nil), b...)
	sort.Slice(s, func(i, j int) bool { return value.Compare(s[i], s[j]) < 0 })
	return s
}

// tpchDatasets maps the query builders' variable names onto the catalog
// names tranced preloads them under.
func tpchDatasets(q nrc.Expr, level int) nrc.Expr {
	subst := map[string]nrc.Expr{"NDB": nrc.V(fmt.Sprintf("tpch/ndb-l%d", level))}
	for name := range tpch.FlatEnv() {
		subst[name] = nrc.V("tpch/" + strings.ToLower(name))
	}
	return nrc.Substitute(q, subst)
}

// cycleOrders draws one permutation of n kinds per cycle.
func cycleOrders(rng *rand.Rand, cycles, n int) [][]int {
	out := make([][]int, cycles)
	for i := range out {
		out[i] = rng.Perm(n)
	}
	return out
}

// maxCycles bounds the per-round cycle count any -seconds value can ask for,
// so the seeded schedule can be drawn once up front.
const maxCycles = 4096

type analyticKind struct {
	name     string
	class    tpch.QueryClass
	strategy string
}

const analyticLevel = 2

// analyticWorkload serves tranced's prepared TPC-H routes at nesting level 2:
// every request is a plan-cache hit over bound data, so the engine does
// nearly all the work.
func analyticWorkload(name string, customers, skew int, seed int64, kinds []analyticKind, cps float64) (*workload, error) {
	eng, tables, err := newTPCHEngine(customers, skew, analyticLevel)
	if err != nil {
		return nil, err
	}
	w := &workload{
		name:            name,
		serverArgs:      []string{"-customers", fmt.Sprint(customers), "-skew", fmt.Sprint(skew), "-max-level", fmt.Sprint(analyticLevel)},
		clients:         1,
		coldStarts:      5,
		cyclesPerSecond: cps,
		eng:             eng,
		setup:           func() []op { return nil },
		probe:           probeTarget{dataset: fmt.Sprintf("tpch/ndb-l%d", analyticLevel)},
	}
	memo := map[string]value.Bag{}
	qks := make([]*queryKind, len(kinds))
	for i, ak := range kinds {
		k := &queryKind{
			idx: i, name: ak.name, strategy: ak.strategy, limit: 20,
			expr:      tpchDatasets(tpch.Query(ak.class, analyticLevel, false), analyticLevel),
			shredOnly: ak.strategy == "shred",
			get:       fmt.Sprintf("/query?name=tpch/%s&level=%d", ak.class, analyticLevel),
		}
		if ak.strategy != "auto" {
			k.want = ak.strategy
		}
		if err := k.resolve(eng, memo); err != nil {
			return nil, err
		}
		qks[i] = k
		w.kinds = append(w.kinds, k.name)
		if ak.class == tpch.NestedToNested && strings.HasPrefix(ak.strategy, "standard") {
			w.heaviest = k
		}
	}
	// The skew layer's own view of the join input the flat-to-nested routes
	// hash on: Orders by o_custkey.
	w.skewKeys, w.skewShare = skewProbe(tables.Orders, 1)

	orders := cycleOrders(rand.New(rand.NewSource(seed)), maxCycles, len(qks))
	w.first = func() []op {
		ops := make([]op, len(qks))
		for i, k := range qks {
			ops[i] = k.firstOp()
		}
		return ops
	}
	w.round = func(cycles int) [][]op {
		ops := make([]op, 0, cycles*len(qks))
		for _, perm := range orders[:cycles] {
			for _, ki := range perm {
				ops = append(ops, qks[ki].op(qks[ki].limit))
			}
		}
		return [][]op{ops}
	}
	w.vacuity = func(before, after *serverCounters, _ []int) error {
		if c := after.PlanCache.Compiles - before.PlanCache.Compiles; c != 0 {
			return fmt.Errorf("%d compilations during the timed rounds of a prepared workload", c)
		}
		if skew > 0 && w.skewShare == 0 {
			return fmt.Errorf("skew.heavy_row_share is 0: the skewed workload has no heavy keys")
		}
		return nil
	}
	w.inprocCycle = func(int) []inprocOp {
		ops := make([]inprocOp, len(qks))
		for i, k := range qks {
			ops[i] = k.inproc(k.name, k.limit)
		}
		return ops
	}
	return w, nil
}

// adhocWorkload posts query text from two clients at a 100-customer server:
// requests of a millisecond or so, where routing, parsing, checking,
// planning, the caches, the index and result encoding dominate.
func adhocWorkload(seed int64) (*workload, error) {
	const customers = 100
	eng, tables, err := newTPCHEngine(customers, 0, 2)
	if err != nil {
		return nil, err
	}
	w := &workload{
		name:            "adhoc_serve",
		serverArgs:      []string{"-customers", fmt.Sprint(customers)},
		clients:         2,
		coldStarts:      11,
		cyclesPerSecond: 82,
		eng:             eng,
		kinds:           adhocKinds,
		setup:           func() []op { return nil },
		probe:           probeTarget{dataset: "tpch/orders", indexColumn: "o_orderkey"},
	}
	rng := rand.New(rand.NewSource(seed))
	memo := map[string]value.Bag{}

	// point_lookup: one order by key, from a pool small enough to stay in the
	// server's 128-entry text cache.
	const poolSize = 64
	pool := make([]*queryKind, poolSize)
	for i, key := range rng.Perm(len(tables.Orders))[:poolSize] {
		o := nrc.V("o")
		pool[i] = &queryKind{
			idx: 0, name: "point_lookup", strategy: "standard", want: "standard", limit: 20,
			expr: nrc.ForIn("o", nrc.V("tpch/orders"),
				nrc.IfThen(nrc.EqOf(nrc.P(o, "o_orderkey"), nrc.C(int64(key+1))),
					nrc.SingOf(nrc.Record(
						"o_orderkey", nrc.P(o, "o_orderkey"),
						"o_custkey", nrc.P(o, "o_custkey"),
						"o_totalprice", nrc.P(o, "o_totalprice"),
					)))),
		}
		if err := pool[i].resolve(eng, memo); err != nil {
			return nil, err
		}
		pool[i].rows = 1 // o_orderkey is the generator's primary key
		w.probe.indexKeys = append(w.probe.indexKeys, int64(key+1))
	}

	// fresh_text: a constant no earlier request carried, so the text misses
	// the text cache and its plan misses the plan cache.
	freshBase := (seed%1000 + 1) * 1_000_000
	var freshN int64
	fresh := func() *queryKind {
		freshN++
		n := nrc.V("n")
		return &queryKind{
			idx: 1, name: "fresh_text", strategy: "standard", want: "standard", limit: 20,
			rows: len(tables.Nation),
			expr: nrc.ForIn("n", nrc.V("tpch/nation"),
				nrc.SingOf(nrc.Record("n_name", nrc.P(n, "n_name"), "tag", nrc.C(freshBase+freshN)))),
		}
	}
	// Any constant is fresh to a server that has just started, so every cold
	// start can verify the same one.
	freshFirst := fresh()
	if err := freshFirst.resolve(eng, memo); err != nil {
		return nil, err
	}
	freshOp := func() op {
		k := fresh()
		k.text = nrc.Print(k.expr)
		return k.op(k.limit)
	}

	fixed := []*queryKind{
		{idx: 2, name: "flat_selective", strategy: "standard", want: "standard", limit: 0,
			expr: tpchDatasets(tpch.FlatSelective(), 0)},
		{idx: 3, name: "nested_full", strategy: "shred+unshred", want: "shred+unshred", limit: 0,
			expr: tpchDatasets(tpch.Query(tpch.NestedToNested, 1, false), 1)},
		{idx: 4, name: "selective_auto", strategy: "auto", limit: 0,
			expr: tpchDatasets(tpch.NestedToFlatSelective(2), 2)},
	}
	for _, k := range fixed {
		if err := k.resolve(eng, memo); err != nil {
			return nil, err
		}
	}
	w.heaviest = fixed[1]

	orders := cycleOrders(rng, maxCycles, len(w.kinds))
	keys := make([]int, maxCycles)
	for i := range keys {
		keys[i] = rng.Intn(poolSize)
	}
	w.first = func() []op {
		return []op{pool[0].firstOp(), freshFirst.firstOp(), fixed[0].firstOp(), fixed[1].firstOp(), fixed[2].firstOp()}
	}
	w.round = func(cycles int) [][]op {
		lists := make([][]op, w.clients)
		for c, perm := range orders[:cycles] {
			for _, ki := range perm {
				var o op
				switch ki {
				case 0:
					o = pool[keys[c]].op(20)
				case 1:
					o = freshOp()
				default:
					o = fixed[ki-2].op(fixed[ki-2].limit)
				}
				lists[c%w.clients] = append(lists[c%w.clients], o)
			}
		}
		return lists
	}
	w.vacuity = func(before, after *serverCounters, ops []int) error {
		if d := after.Index.Scans - before.Index.Scans; d < int64(ops[0]) {
			return fmt.Errorf("point_lookup ran %d times but index.scans advanced by %d", ops[0], d)
		}
		if d := after.PlanCache.Compiles - before.PlanCache.Compiles; d < int64(ops[1]) {
			return fmt.Errorf("fresh_text ran %d times but plan_cache.compiles advanced by %d", ops[1], d)
		}
		return nil
	}
	w.inprocCycle = func(i int) []inprocOp {
		f := fresh()
		f.text = nrc.Print(f.expr)
		// Eight keys recur over the pass, so that, as on the server, the
		// median lookup finds its text prepared.
		p := pool[i%8]
		return []inprocOp{
			p.inproc(p.name, 20), f.inproc(f.name, 20),
			fixed[0].inproc(fixed[0].name, 0), fixed[1].inproc(fixed[1].name, 0), fixed[2].inproc(fixed[2].name, 0),
		}
	}
	return w, nil
}

// mutateRows is the uploaded dataset's size; mutateBatch the rows every
// cycle appends and deletes again.
const (
	mutateRows  = 10000
	mutateBatch = 50
	mutateTag   = 1_000_000 // the batch column's value on appended rows
)

// mutateRow renders one row of the uploaded dataset. Only the real values are
// seeded, and they are printed at a fixed width: every seed uploads the same
// number of bytes, and the item keys the nested read filters on do not depend
// on the seed, so the bytes it shuffles do not either.
func mutateRow(sb *strings.Builder, rng *rand.Rand, id, batch int) {
	fmt.Fprintf(sb, `{"id": %d, "batch": %d, "grp": %d, "val": %.4f, "items": [`, id, batch, id%10, 1+9*rng.Float64())
	for j := 0; j < 3; j++ {
		if j > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(sb, `{"k": %d, "w": %.4f}`, 100+(id*7+j*311)%900, 1+9*rng.Float64())
	}
	sb.WriteString("]}\n")
}

// mutateWorkload drives the catalog's write path: every cycle appends a
// batch, reads it back two ways, deletes it and checks it is gone.
func mutateWorkload(seed int64, rows int) (*workload, error) {
	const dataset = "datasets/mv"
	rng := rand.New(rand.NewSource(seed))
	var upload strings.Builder
	for i := 0; i < rows; i++ {
		mutateRow(&upload, rng, 1_000_000+i, i/mutateBatch)
	}
	// Appended batches differ per cycle but recur every round.
	batches := make([]string, 64)
	for c := range batches {
		var sb strings.Builder
		for i := 0; i < mutateBatch; i++ {
			mutateRow(&sb, rng, 2_000_000+c*mutateBatch+i, mutateTag)
		}
		batches[c] = sb.String()
	}

	eng := newEngine()
	if _, err := eng.cat.RegisterJSON(dataset, strings.NewReader(upload.String())); err != nil {
		return nil, err
	}
	for _, col := range []string{"id", "batch"} {
		if _, err := eng.cat.CreateIndex(dataset, col, "hash"); err != nil {
			return nil, err
		}
	}
	w := &workload{
		name:            "mutate_visible",
		serverArgs:      []string{"-customers", "20", "-max-level", "0"},
		clients:         1,
		coldStarts:      7,
		cyclesPerSecond: 8.4,
		eng:             eng,
		kinds:           mutateKinds,
		probe:           probeTarget{dataset: dataset, indexColumn: "id"},
	}
	for i := 0; i < mutateBatch; i++ {
		w.probe.indexKeys = append(w.probe.indexKeys, int64(1_000_000+i*7))
		w.probe.indexTail = append(w.probe.indexTail, int64(2_000_000+i))
	}

	r := nrc.V("r")
	point := func(idx int, name string) *queryKind {
		return &queryKind{
			idx: idx, name: name, strategy: "standard", want: "standard", limit: 0,
			expr: nrc.ForIn("r", nrc.V(dataset),
				nrc.IfThen(nrc.EqOf(nrc.P(r, "batch"), nrc.C(int64(mutateTag))),
					nrc.SingOf(nrc.Record("id", nrc.P(r, "id"), "val", nrc.P(r, "val"))))),
		}
	}
	readPoint, readGone := point(1, "read_point"), point(4, "read_gone")
	it := nrc.V("it")
	readNested := &queryKind{
		idx: 2, name: "read_nested", strategy: "shred+unshred", want: "shred+unshred", limit: 20,
		expr: nrc.ForIn("r", nrc.V(dataset),
			nrc.SingOf(nrc.Record(
				"id", nrc.P(r, "id"),
				"big", nrc.ForIn("it", nrc.P(r, "items"),
					nrc.IfThen(nrc.GeOf(nrc.P(it, "k"), nrc.C(int64(550))),
						nrc.SingOf(nrc.Record("k", nrc.P(it, "k"), "w", nrc.P(it, "w"))))),
			))),
	}
	w.heaviest = readNested

	// The reference answers are taken with the first batch appended, which is
	// the state every cold start verifies in.
	if _, _, err := eng.cat.AppendJSON(dataset, strings.NewReader(batches[0])); err != nil {
		return nil, err
	}
	for _, k := range []*queryKind{readPoint, readNested} {
		if err := k.resolve(eng, map[string]value.Bag{}); err != nil {
			return nil, err
		}
	}
	if _, err := eng.cat.DeleteJSON(dataset, "batch", fmt.Sprint(mutateTag)); err != nil {
		return nil, err
	}
	if err := readGone.resolve(eng, map[string]value.Bag{}); err != nil {
		return nil, err
	}
	if len(readPoint.expected) != mutateBatch || len(readNested.expected) != rows+mutateBatch || len(readGone.expected) != 0 {
		return nil, fmt.Errorf("mutate_visible reference answers have %d/%d/%d rows", len(readPoint.expected), len(readNested.expected), len(readGone.expected))
	}
	readPoint.rows, readNested.rows, readGone.rows = mutateBatch, rows+mutateBatch, 0

	ok200 := func(want int) func(*reply) error {
		return func(r *reply) error {
			if r.status != want {
				return fmt.Errorf("status %d: %.200s", r.status, r.body)
			}
			return nil
		}
	}
	w.setup = func() []op {
		return []op{
			{method: "POST", path: "/datasets?name=mv", body: upload.String(), check: ok200(201)},
			{method: "POST", path: "/datasets/mv/indexes?column=id&kind=hash", check: ok200(201)},
			{method: "POST", path: "/datasets/mv/indexes?column=batch&kind=hash", check: ok200(201)},
		}
	}
	// One client issues the cycle in order, so the generation a mutation
	// reports must exceed the one before it.
	var lastGen float64
	mutation := func(idx int, path, body, countField string) op {
		return op{kind: idx, method: "POST", path: path, body: body, check: func(r *reply) error {
			if r.status != 200 {
				return fmt.Errorf("status %d: %.200s", r.status, r.body)
			}
			if n, _ := topField(r.body, countField); int(n) != mutateBatch {
				return fmt.Errorf("%s %d, want %d", countField, int(n), mutateBatch)
			}
			gen, _ := topField(r.body, "generation")
			if gen <= lastGen {
				return fmt.Errorf("generation %v did not advance past %v", gen, lastGen)
			}
			lastGen = gen
			return nil
		}}
	}
	cycle := func(c int, first bool) []op {
		ops := []op{
			mutation(0, "/datasets/mv/append", batches[c%len(batches)], "appended"),
			readPoint.op(0), readNested.op(readNested.limit),
			mutation(3, fmt.Sprintf("/datasets/mv/delete?column=batch&value=%d", mutateTag), "", "removed"),
			readGone.op(0),
		}
		if first {
			ops[1], ops[2], ops[4] = readPoint.firstOp(), readNested.firstOp(), readGone.firstOp()
		}
		return ops
	}
	w.first = func() []op {
		lastGen = 0
		return cycle(0, true)
	}
	w.round = func(cycles int) [][]op {
		var ops []op
		for c := 0; c < cycles; c++ {
			ops = append(ops, cycle(c, false)...)
		}
		return [][]op{ops}
	}
	w.vacuity = func(before, after *serverCounters, ops []int) error {
		// Every mutation's generation check already ran per op; here: the
		// point reads must have used the batch index.
		if d := after.Index.Scans - before.Index.Scans; d < int64(ops[1]+ops[4]) {
			return fmt.Errorf("%d point reads but index.scans advanced by %d", ops[1]+ops[4], d)
		}
		return nil
	}
	elem := func() nrc.Type {
		_, t, _ := eng.cat.Data(dataset)
		return t.(nrc.BagType).Elem
	}
	w.inprocCycle = func(i int) []inprocOp {
		batch := batches[i%len(batches)]
		return []inprocOp{
			{name: "append", mutate: func(tr *tracer, req int) error {
				var rows value.Bag
				var err error
				sp := tr.begin(req, "decode")
				rows, err = ingest.ReadJSONAs(strings.NewReader(batch), elem())
				tr.close(sp)
				if err != nil {
					return err
				}
				sp = tr.begin(req, "append")
				_, err = eng.cat.Append(dataset, rows)
				tr.close(sp)
				return err
			}},
			readPoint.inproc("read_point", 0), readPoint.inproc("read_point.steady", 0),
			readNested.inproc("read_nested", readNested.limit), readNested.inproc("read_nested.steady", readNested.limit),
			{name: "delete", mutate: func(tr *tracer, req int) error {
				sp := tr.begin(req, "delete")
				n, err := eng.cat.DeleteJSON(dataset, "batch", fmt.Sprint(mutateTag))
				tr.close(sp)
				if err == nil && n != mutateBatch {
					err = fmt.Errorf("in-process delete removed %d rows, want %d", n, mutateBatch)
				}
				return err
			}},
			readGone.inproc("read_gone", 0), readGone.inproc("read_gone.steady", 0),
		}
	}
	return w, nil
}
