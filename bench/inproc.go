package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/trance-go/trance"
	"github.com/trance-go/trance/internal/dataflow"
	"github.com/trance-go/trance/internal/index"
	"github.com/trance-go/trance/internal/ingest"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/parse"
	"github.com/trance-go/trance/internal/shred"
	"github.com/trance-go/trance/internal/skew"
	"github.com/trance-go/trance/internal/stats"
	"github.com/trance-go/trance/internal/tpch"
	"github.com/trance-go/trance/internal/value"
)

// engine mirrors, in this process, what a tranced server holds: a catalog,
// one session every query text is prepared through, and the bounded cache of
// prepared texts. It provides the reference answers before a run and serves
// the in-process pass after it.
type engine struct {
	cat   *trance.Catalog
	cfg   trance.Config
	sess  *trance.Session
	texts map[string]*trance.SessionQuery
	order []string
}

// textCacheSize is tranced's maxTextQueryCache.
const textCacheSize = 128

func newEngine() *engine {
	cfg := trance.DefaultConfig()
	cfg.Parallelism = 8 // tranced's -parallelism default
	e := &engine{cat: trance.NewCatalog(), cfg: cfg, texts: map[string]*trance.SessionQuery{}}
	e.sess = e.cat.NewSession(trance.SessionOptions{Config: &e.cfg, Pool: trance.NewPool(0)})
	return e
}

// newTPCHEngine registers the TPC-H datasets exactly as tranced's newServer
// preloads them (same generator settings, same names). The biomedical
// preloads are left out: no workload reads them.
func newTPCHEngine(customers, skewFactor, maxLevel int) (*engine, *tpch.Tables, error) {
	e := newEngine()
	tables := tpch.Generate(tpch.Config{
		Customers: customers, OrdersPerCustomer: 6, LinesPerOrder: 4,
		Parts: 100, SkewFactor: skewFactor, Seed: 1,
	})
	flatEnv := tpch.FlatEnv()
	for name, bag := range tables.Inputs() {
		if err := e.cat.Register("tpch/"+strings.ToLower(name), flatEnv[name], bag); err != nil {
			return nil, nil, err
		}
	}
	for level := 0; level <= maxLevel; level++ {
		nenv := tpch.Env(tpch.NestedToNested, level, false)
		if err := e.cat.Register(fmt.Sprintf("tpch/ndb-l%d", level), nenv["NDB"], tpch.BuildNested(tables, level, true)); err != nil {
			return nil, nil, err
		}
	}
	return e, tables, nil
}

// skewProbe asks the skew layer which keys of a join input it would treat as
// heavy and what share of the rows they carry.
func skewProbe(rows value.Bag, keyCol int) (keys int, share float64) {
	ctx := dataflow.NewContext(8)
	drows := make([]dataflow.Row, len(rows))
	for i, r := range rows {
		drows[i] = dataflow.Row(r.(value.Tuple))
	}
	d := ctx.FromRows(drows)
	heavy := skew.NewDetector().HeavyKeys(d, []int{keyCol})
	_, heavyDS := skew.Split(d, []int{keyCol}, heavy)
	return len(heavy), float64(heavyDS.Count()) / float64(len(rows))
}

// inprocOp is one operation of the in-process pass: a query, or a catalog
// mutation that records its own layer spans.
type inprocOp struct {
	name     string
	text     string
	strategy trance.Strategy
	limit    int
	rows     int
	mutate   func(tr *tracer, req int) error
}

func (k *queryKind) inproc(name string, limit int) inprocOp {
	strat, _ := trance.ParseStrategy(k.strategy)
	return inprocOp{name: name, text: k.text, strategy: strat, limit: limit, rows: k.rows}
}

// engineAcc sums the engine's own per-run metrics over the traced steady
// requests.
type engineAcc struct {
	ops                    int
	shuffleRecords, stages int64
	vectorizedRows         int64
	peakPartition          int64
	stageMs                map[string]float64
}

// stageFamilies are the engine's stage kinds (exec.nextStage); a stage name
// is its kind, '#', a sequence number and an optional side suffix.
var stageFamilies = []string{"unnest", "nest", "join", "bjoin", "cross", "dedup", "bagToDict", "skewjoin", "unnest-heavy"}

func (a *engineAcc) add(res *trance.Result) {
	m := res.Metrics
	a.ops++
	a.shuffleRecords += m.ShuffleRecords
	a.stages += m.Stages
	a.vectorizedRows += m.VectorizedRows
	a.peakPartition = max(a.peakPartition, m.PeakPartition)
	for _, sw := range m.StageWall {
		family, _, _ := strings.Cut(sw.Stage, "#")
		a.stageMs[strings.ReplaceAll(family, "/", "-")] += ms(sw.Wall)
	}
}

// request runs one in-process operation the way tranced's handlers do —
// text cache, prepare, compile through the plan cache, run, collect, encode —
// with one span around each call into a layer. With a nil tracer it is the
// bare path: the same calls, no spans.
func (e *engine) request(tr *tracer, reqName string, o inprocOp, acc *engineAcc) error {
	req := tr.request(reqName)
	defer tr.close(req)
	if o.mutate != nil {
		return o.mutate(tr, req)
	}
	sq, ok := e.texts[o.text]
	if !ok {
		sp := tr.begin(req, "parse")
		parsed, err := parse.Query(o.text)
		tr.close(sp)
		if err != nil {
			return err
		}
		sp = tr.begin(req, "prepare")
		sq, err = e.sess.PrepareNamed("adhoc", parsed.Expr)
		tr.close(sp)
		if err != nil {
			return err
		}
		for len(e.texts) >= textCacheSize {
			delete(e.texts, e.order[0])
			e.order = e.order[1:]
		}
		e.texts[o.text] = sq
		e.order = append(e.order, o.text)
	}
	// As in the handlers, asking for the output schema is what compiles the
	// strategy (or finds it in the plan cache); after a mutation it also
	// re-resolves and re-checks the query against the new generation.
	sp := tr.begin(req, "compile")
	cols, err := sq.Prepared().OutputSchema(o.strategy)
	tr.close(sp)
	if err != nil {
		return err
	}
	sp = tr.begin(req, "run")
	res, err := sq.Run(context.Background(), o.strategy)
	if err == nil {
		// The engine times its own execution; the rest of Run is the
		// session's generation probe and input binding.
		tr.carve(sp, "execute", res.Elapsed)
	}
	tr.close(sp)
	if err != nil {
		return err
	}
	sp = tr.begin(req, "collect")
	rows := res.Output.CollectSorted()
	tr.close(sp)
	if o.rows >= 0 && len(rows) != o.rows {
		return fmt.Errorf("in-process %s: %d rows, want %d", reqName, len(rows), o.rows)
	}
	sp = tr.begin(req, "encode")
	err = encodeReply(res, cols, rows, o.limit)
	tr.close(sp)
	if acc != nil {
		acc.add(res)
	}
	return err
}

// encodeReply renders rows as tranced's writeQueryResult does: typed JSON
// objects under the row limit, indented, with the reply's header fields.
func encodeReply(res *trance.Result, cols []trance.OutputColumn, rows []dataflow.Row, limit int) error {
	total := len(rows)
	if limit > 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	fields := make([]nrc.Field, len(cols))
	for i, c := range cols {
		fields[i] = nrc.Field{Name: c.Name, Type: c.Type}
	}
	tuples := make([]value.Tuple, len(rows))
	for i, row := range rows {
		tuples[i] = value.Tuple(row)
	}
	results := ingest.EncodeRows(tuples, fields)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{
		"strategy":   res.Strategy.String(),
		"elapsed_ms": ms(res.Elapsed),
		"rows":       total,
		"returned":   len(results),
		"results":    results,
	})
}

// probeTarget points the layer probes at a workload's data.
type probeTarget struct {
	dataset     string  // statistics collection and value shredding
	indexColumn string  // scalar column of dataset to index; "" skips the probe
	indexKeys   []int64 // keys to look up
	indexTail   []int64 // keys to extend the index by
}

// spanLayers maps the in-process pass's span names to the per-layer metrics
// they feed.
var spanLayers = []struct{ span, metric string }{
	{"parse", "parse.ms"},
	{"prepare", "nrc.check_ms"},
	{"compile", "runner.compile_ms"},
	{"run", "catalog.bind_ms"},
	{"execute", "runner.exec_ms"},
	{"collect", "tranced.collect_sort_ms"},
	{"encode", "ingest.encode_ms"},
	{"decode", "ingest.decode_ms"},
	{"append", "catalog.append_ms"},
	{"delete", "catalog.delete_ms"},
}

// inprocUnits names every metric the in-process pass reports, with its unit.
var inprocUnits = map[string]string{
	"parse.ms": "ms", "nrc.check_ms": "ms", "runner.compile_ms": "ms", "catalog.bind_ms": "ms",
	"runner.exec_ms": "ms", "tranced.collect_sort_ms": "ms", "ingest.encode_ms": "ms",
	"ingest.decode_ms": "ms", "catalog.append_ms": "ms", "catalog.delete_ms": "ms",
	"runner.cold_compile_ms": "ms", "catalog.cold_bind_ms": "ms", "runner.cold_exec_ms": "ms", "ingest.cold_encode_ms": "ms",
	"catalog.rebind_ms": "ms", "shred.query_ms": "ms", "shred.input_ms": "ms", "stats.collect_ms": "ms",
	"index.lookup_us": "us", "index.extend_ms": "ms",
	"dataflow.shuffle_records_per_op": "count", "dataflow.stages_per_op": "count",
	"dataflow.peak_partition_kib": "KiB", "dataflow.parallel_speedup": "ratio",
	"exec.vectorized_rows_per_op": "rows",
	"exec.stage_ms.unnest":        "ms", "exec.stage_ms.nest": "ms", "exec.stage_ms.join": "ms", "exec.stage_ms.bjoin": "ms",
	"exec.stage_ms.cross": "ms", "exec.stage_ms.dedup": "ms", "exec.stage_ms.bagToDict": "ms",
	"exec.stage_ms.skewjoin": "ms", "exec.stage_ms.unnest-heavy": "ms",
	"go.alloc_kib_per_op": "KiB", "go.mallocs_per_op": "count", "go.gc_pause_ms_per_op": "ms",
	"harness.trace_overhead_pct": "pct", "harness.unattributed_pct": "pct",
}

const coldPrefix, steadySuffix = "cold:", ".steady"

// runInproc is the traced pass: after the server has stopped, the workload's
// kinds run in this process over the same generated inputs, once cold and
// iters times steady with spans, then bareIters times without. It returns
// the per-layer metrics and writes the spans to tracePath.
func runInproc(w *workload, iters, bareIters int, tracePath string, seed int64) (map[string]float64, error) {
	e := w.eng
	out := map[string]float64{}
	for name := range inprocUnits {
		out[name] = 0
	}
	tr := newTracer()
	for _, o := range w.inprocCycle(0) {
		cold := o
		cold.limit = 0
		if err := e.request(tr, coldPrefix+o.name, cold, nil); err != nil {
			return nil, err
		}
	}
	acc := &engineAcc{stageMs: map[string]float64{}}
	for i := 1; i <= iters; i++ {
		for _, o := range w.inprocCycle(i) {
			a := acc
			if strings.HasSuffix(o.name, steadySuffix) {
				a = nil
			}
			if err := e.request(tr, o.name, o, a); err != nil {
				return nil, err
			}
		}
	}

	// The bare pass: same requests, one timer each, no spans.
	bare := map[string][]float64{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	bareOps := 0
	for i := iters + 1; i <= iters+bareIters; i++ {
		for _, o := range w.inprocCycle(i) {
			start := time.Now()
			if err := e.request(nil, o.name, o, nil); err != nil {
				return nil, err
			}
			bare[o.name] = append(bare[o.name], ms(time.Since(start)))
			bareOps++
		}
	}
	runtime.ReadMemStats(&after)
	out["go.alloc_kib_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(bareOps)
	out["go.mallocs_per_op"] = float64(after.Mallocs-before.Mallocs) / float64(bareOps)
	out["go.gc_pause_ms_per_op"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6 / float64(bareOps)

	self := tr.selfTimes()
	med := func(req, span string) float64 { return median(self[req][span]) }
	var tracedSum, bareSum, rootSelfSum float64
	kinds := 0
	for _, name := range w.kinds {
		if self[name] == nil {
			return nil, fmt.Errorf("in-process pass recorded no %s request", name)
		}
		kinds++
		total := 0.0
		for span := range self[name] {
			total += med(name, span)
		}
		tracedSum += total
		rootSelfSum += med(name, "")
		bareSum += median(bare[name])
		for _, sl := range spanLayers {
			out[sl.metric] += med(name, sl.span)
		}
		for _, sl := range [][2]string{
			{"parse", "runner.cold_compile_ms"}, {"prepare", "runner.cold_compile_ms"}, {"compile", "runner.cold_compile_ms"},
			{"run", "catalog.cold_bind_ms"}, {"execute", "runner.cold_exec_ms"},
			{"collect", "ingest.cold_encode_ms"}, {"encode", "ingest.cold_encode_ms"},
		} {
			out[sl[1]] += med(coldPrefix+name, sl[0])
		}
		if steady := self[name+steadySuffix]; steady != nil {
			out["catalog.rebind_ms"] += med(name, "compile") + med(name, "run") -
				median(steady["compile"]) - median(steady["run"])
		}
	}
	for _, sl := range spanLayers {
		out[sl.metric] /= float64(kinds)
	}
	out["catalog.rebind_ms"] /= float64(kinds)
	out["harness.unattributed_pct"] = 100 * rootSelfSum / tracedSum
	out["harness.trace_overhead_pct"] = 100 * (tracedSum - bareSum) / bareSum

	n := float64(acc.ops)
	out["dataflow.shuffle_records_per_op"] = float64(acc.shuffleRecords) / n
	out["dataflow.stages_per_op"] = float64(acc.stages) / n
	out["dataflow.peak_partition_kib"] = float64(acc.peakPartition) / 1024
	out["exec.vectorized_rows_per_op"] = float64(acc.vectorizedRows) / n
	for _, f := range stageFamilies {
		out["exec.stage_ms."+f] = acc.stageMs[f] / n
	}

	if err := runProbes(w, out); err != nil {
		return nil, err
	}
	printShares(w, self)
	return out, tr.write(tracePath, w.name, seed)
}

// printShares prints, per request kind and for the workload, which share of
// the traced in-process time each layer span took (median self times).
func printShares(w *workload, self map[string]map[string][]float64) {
	fmt.Printf("   -- share of in-process time per layer, %%\n   %-24s %8s", "kind", "ms")
	for _, sl := range spanLayers {
		fmt.Printf(" %8s", sl.span)
	}
	fmt.Printf(" %8s\n", "other")
	row := func(name string, med func(span string) float64) {
		total := med("")
		for _, sl := range spanLayers {
			total += med(sl.span)
		}
		fmt.Printf("   %-24s %8.3f", name, total)
		for _, sl := range spanLayers {
			fmt.Printf(" %8.1f", 100*ratio(med(sl.span), total))
		}
		fmt.Printf(" %8.1f\n", 100*ratio(med(""), total))
	}
	for _, kind := range w.kinds {
		row(kind, func(span string) float64 { return median(self[kind][span]) })
	}
	row(w.name, func(span string) float64 {
		sum := 0.0
		for _, kind := range w.kinds {
			sum += median(self[kind][span])
		}
		return sum
	})
}

// timeIt returns the median wall time of n calls of fn, in milliseconds.
func timeIt(n int, fn func() error) (float64, error) {
	xs := make([]float64, n)
	for i := range xs {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs[i] = ms(time.Since(start))
	}
	return median(xs), nil
}

// runProbes times single calls into layers that the request spans cannot
// isolate: they run inside Session and Catalog calls, whose insides carry no
// harness spans.
func runProbes(w *workload, out map[string]float64) error {
	e := w.eng
	var err error

	// The shredding compiler on the workload's heaviest query.
	hq := nrc.Copy(w.heaviest.expr)
	env := nrc.Env{}
	for v := range nrc.FreeVars(hq) {
		_, t, _ := e.cat.Data(v)
		env[v] = t
	}
	if out["shred.query_ms"], err = timeIt(5, func() error {
		_, err := shred.ShredQuery(nrc.Copy(hq), env, "Q", shred.DefaultOptions())
		return err
	}); err != nil {
		return err
	}

	// Value shredding and statistics collection over the workload's dataset.
	bag, t, ok := e.cat.Data(w.probe.dataset)
	if !ok {
		return fmt.Errorf("probe dataset %s is not registered", w.probe.dataset)
	}
	bt := t.(nrc.BagType)
	if out["shred.input_ms"], err = timeIt(3, func() error {
		_, err := shred.ShredInput("D", bag, bt)
		return err
	}); err != nil {
		return err
	}
	out["stats.collect_ms"], _ = timeIt(3, func() error {
		stats.Collect(bag, bt, stats.Options{})
		return nil
	})

	// The index layer on its own: point probes and one incremental extension.
	if col := w.probe.indexColumn; col != "" {
		off := -1
		for i, f := range bt.Elem.(nrc.TupleType).Fields {
			if f.Name == col {
				off = i
			}
		}
		vals := make([]value.Value, len(bag))
		for i, r := range bag {
			vals[i] = r.(value.Tuple)[off]
		}
		ci, err := index.Build(col, true, true, vals)
		if err != nil {
			return err
		}
		lookups := make([]float64, 0, len(w.probe.indexKeys))
		for _, k := range w.probe.indexKeys {
			start := time.Now()
			if len(ci.Lookup([]index.Span{index.Point(k)})) == 0 {
				return fmt.Errorf("index probe found no row for %s = %d", col, k)
			}
			lookups = append(lookups, float64(time.Since(start))/1e3)
		}
		out["index.lookup_us"] = median(lookups)
		tail := make([]value.Value, len(w.probe.indexTail))
		for i, k := range w.probe.indexTail {
			tail[i] = k
		}
		if len(tail) > 0 {
			if out["index.extend_ms"], err = timeIt(5, func() error {
				_, err := ci.Extend(tail)
				return err
			}); err != nil {
				return err
			}
		}
	}

	// The heaviest query's engine time on one worker over all workers.
	serial := e.cfg
	serial.Workers = 1
	elapsed := func(cfg trance.Config, pool *trance.Pool) (float64, error) {
		sess := e.cat.NewSession(trance.SessionOptions{Config: &cfg, Pool: pool})
		sq, err := sess.PrepareText("speedup", w.heaviest.text)
		if err != nil {
			return 0, err
		}
		strat, _ := trance.ParseStrategy(w.heaviest.strategy)
		xs := make([]float64, 5)
		for i := range xs {
			res, err := sq.Run(context.Background(), strat)
			if err != nil {
				return 0, err
			}
			xs[i] = ms(res.Elapsed)
		}
		return median(xs), nil
	}
	one, err := elapsed(serial, trance.NewPool(1))
	if err != nil {
		return err
	}
	all, err := elapsed(e.cfg, trance.NewPool(0))
	if err != nil {
		return err
	}
	out["dataflow.parallel_speedup"] = one / all
	return nil
}
