// Command bench is the repository's benchmark: it builds cmd/tranced, drives
// it over HTTP as a child process through four workloads, checks the answers,
// and prints six end-to-end metrics and a per-layer breakdown for each. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// spec is BENCHMARK.json: the names, units and bounds this harness reports
// against.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(root string) (*spec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// config is one invocation's settings.
type config struct {
	root    string // repository checkout
	build   string // where binaries go
	out     string // where traces and server logs go
	seed    int64
	seconds int
	trace   bool
	quick   bool
}

// timedRounds is fixed; -seconds only sets the cycles per round. The rounds
// are many and short because the reference kernel is read between them.
const timedRounds = 30

// result is one run of one workload.
type result struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	problems  []string
	endToEnd  map[string]metric
	perLayer  map[string]metric
	kindOps   []int // timed ops of each request kind
}

// runWorkload generates one workload's inputs from cfg.seed and measures it.
func runWorkload(cfg config, name string) (*result, error) {
	start := time.Now()
	w, err := newWorkload(name, cfg.seed, cfg.quick)
	if err != nil {
		return nil, err
	}
	fmt.Printf("== %s  seed %d  inputs and reference answers generated in %.1f s\n", name, cfg.seed, time.Since(start).Seconds())
	return measure(cfg, w)
}

// measure runs one workload once: cold starts, a warm-up round, the timed
// rounds, and (with cfg.trace) the in-process pass.
func measure(cfg config, w *workload) (*result, error) {
	name := w.name
	bin, buildTime, err := buildTranced(cfg.root, cfg.build)
	if err != nil {
		return nil, err
	}
	starts, rounds, iters, bareIters := w.coldStarts, timedRounds, 30, 10
	cycles := int(math.Round(float64(cfg.seconds) * w.cyclesPerSecond / timedRounds))
	if cfg.quick {
		starts, rounds, cycles, iters, bareIters = 2, 2, 2, 3, 2
	}
	cycles = min(max(cycles, 1), maxCycles)
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	logPath := filepath.Join(cfg.out, name+".server.log")

	// The reference kernel runs before and after every cold start and every
	// timed round; each is scaled by the mean of its two readings.
	shrink := 1
	if cfg.quick {
		shrink = 16
	}
	host, err := startHostProbe(shrink)
	if err != nil {
		return nil, err
	}
	defer host.stop()
	var calib, speeds []float64
	reading, err := host.sample()
	if err != nil {
		return nil, err
	}
	// hostSpeed takes the reading that closes an interval and returns how
	// fast the host ran the server during it, relative to the reference box:
	// the kernel's speed-up or slowdown, damped by calibSensitivity.
	hostSpeed := func() (float64, error) {
		calib = append(calib, reading)
		before := reading
		if reading, err = host.sample(); err != nil {
			return 0, err
		}
		speed := math.Pow(calibRefMs/((before+reading)/2), calibSensitivity)
		speeds = append(speeds, speed)
		return speed, nil
	}

	// Cold starts. The last server stays up and is the one measured.
	coldStart := time.Now()
	var setup, healthy, firstAnswer []float64
	var srv *server
	for i := 0; i < starts; i++ {
		cs, err := runColdStart(bin, logPath, w)
		if err != nil {
			return nil, fmt.Errorf("cold start %d: %w", i+1, err)
		}
		if i < starts-1 {
			cs.srv.stop()
		} else {
			srv = cs.srv
			defer srv.stop()
		}
		if _, err := hostSpeed(); err != nil {
			return nil, err
		}
		setup = append(setup, cs.total.Seconds())
		healthy = append(healthy, ms(cs.healthy))
		firstAnswer = append(firstAnswer, ms(cs.firstAnswer))
	}

	clients := make([]*client, w.clients)
	for i := range clients {
		clients[i] = newClient(srv.base)
		defer clients[i].close()
	}
	admin := clients[0].hc

	res := &result{workload: name, endToEnd: map[string]metric{}, perLayer: map[string]metric{}}
	cold := time.Since(coldStart)
	warmStart := time.Now()
	if warm := runRound(clients, w.round(cycles)); len(warm.failures) > 0 {
		return nil, fmt.Errorf("warm-up round: %d failed operations, first: %s", len(warm.failures), warm.failures[0])
	}
	warmup := time.Since(warmStart)
	timedStart := time.Now()

	before, err := srv.counters(admin)
	if err != nil {
		return nil, err
	}
	var samples []sample
	var roundOps, roundRaw []float64 // ops/s of each timed round: at the reference speed, and as measured
	var cpuScaled, cpuRaw float64    // server CPU seconds: each round's at the reference speed, and as measured
	if reading, err = host.sample(); err != nil {
		return nil, err
	}
	for r := 0; r < rounds; r++ {
		lists := w.round(cycles)
		// Collect the harness's own garbage now, so that its collector does
		// not compete with the server for the two cores during the round.
		runtime.GC()
		cpuBefore, err := srv.cpuSeconds()
		if err != nil {
			return nil, err
		}
		rr := runRound(clients, lists)
		cpuAfter, err := srv.cpuSeconds()
		if err != nil {
			return nil, err
		}
		speed, err := hostSpeed()
		if err != nil {
			return nil, err
		}
		for _, l := range lists {
			res.attempted += len(l)
		}
		res.failed += len(rr.failures)
		res.problems = append(res.problems, rr.failures...)
		for i := range rr.samples {
			rr.samples[i].speed = speed
		}
		samples = append(samples, rr.samples...)
		cpuScaled += (cpuAfter - cpuBefore) * speed
		cpuRaw += cpuAfter - cpuBefore
		roundRaw = append(roundRaw, float64(len(rr.samples))/rr.wall.Seconds())
		roundOps = append(roundOps, float64(len(rr.samples))/rr.wall.Seconds()/speed)
	}
	calib = append(calib, reading)
	after, err := srv.counters(admin)
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	timed := time.Since(timedStart)
	srv.stop()
	if len(samples) == 0 {
		return nil, fmt.Errorf("every timed operation failed, first: %s", res.problems[0])
	}

	// Reduce the samples.
	ops := float64(len(samples))
	byKind := make([][]sample, len(w.kinds))
	var allLat []float64
	respBytes := 0
	for _, s := range samples {
		byKind[s.kind] = append(byKind[s.kind], s)
		allLat = append(allLat, s.latencyMs)
		respBytes += s.bytes
	}
	opsPerKind := make([]int, len(w.kinds))
	var kindP50, kindScaled, engine, overhead []float64
	for k, ss := range byKind {
		opsPerKind[k] = len(ss)
		var lat, scaled, eng, over []float64
		for _, s := range ss {
			lat = append(lat, s.latencyMs)
			scaled = append(scaled, s.latencyMs*s.speed)
			if s.engineMs >= 0 {
				eng = append(eng, s.engineMs)
				over = append(over, s.latencyMs-s.engineMs)
			}
		}
		kindP50 = append(kindP50, median(lat))
		kindScaled = append(kindScaled, median(scaled))
		if len(eng) > 0 {
			engine = append(engine, median(eng))
			overhead = append(overhead, median(over))
		}
	}
	shuffle, columnar, boxed := after.shuffleBytes()
	shuffle0, columnar0, boxed0 := before.shuffleBytes()

	// The four timings are reported as they would read on the reference box:
	// every round and operation was scaled by the speed of the host around
	// it. A cold start is too short next to two readings of the kernel, so
	// set-up is scaled by the run's median speed. Everything per-layer is as
	// measured.
	e := func(name string, v float64, unit string) { res.endToEnd[name] = metric{v, unit} }
	e("setup_s", median(setup)*median(speeds), "s")
	e("lat_p50_ms", mean(kindScaled), "ms")
	e("throughput_ops", median(roundOps), "ops/s")
	e("cpu_ms_per_op", 1000*cpuScaled/ops, "ms")
	e("shuffle_kib_per_op", float64(shuffle-shuffle0)/1024/ops, "KiB")
	e("peak_rss_mib", rss, "MiB")

	l := func(name string, v float64, unit string) { res.perLayer[name] = metric{v, unit} }
	for _, kn := range allKindNames() {
		l("client.p50_ms."+kn, 0, "ms")
	}
	for k, kn := range w.kinds {
		l("client.p50_ms."+kn, kindP50[k], "ms")
	}
	l("client.lat_p95_ms", quantile(allLat, 0.95), "ms")
	l("client.lat_max_ms", quantile(allLat, 1), "ms")
	rs := sorted(roundRaw)
	l("client.round_spread_pct", 100*(rs[len(rs)-1]-rs[0])/median(rs), "pct")
	l("tranced.start_ms", median(healthy), "ms")
	l("tranced.first_answer_ms", median(firstAnswer), "ms")
	l("tranced.engine_ms", mean(engine), "ms")
	l("tranced.overhead_ms", mean(overhead), "ms")
	l("tranced.resp_kib_per_op", float64(respBytes)/1024/ops, "KiB")
	lookups := float64(after.PlanCache.Hits - before.PlanCache.Hits + after.PlanCache.Compiles - before.PlanCache.Compiles)
	l("catalog.plan_cache_hit_ratio", ratio(float64(after.PlanCache.Hits-before.PlanCache.Hits), lookups), "ratio")
	l("plan.vectorized_op_share", ratio(float64(after.Vectorize.Vectorized), float64(after.Vectorize.Vectorized+after.Vectorize.Fallback)), "ratio")
	scans := float64(after.Index.Scans - before.Index.Scans)
	l("index.scans_per_op", scans/ops, "count")
	l("index.rows_matched_per_scan", ratio(float64(after.Index.RowsMatched-before.Index.RowsMatched), scans), "rows")
	l("index.fallbacks_per_op", float64(after.Index.Fallbacks-before.Index.Fallbacks)/ops, "count")
	l("dataflow.columnar_byte_share", ratio(float64(columnar-columnar0), float64(columnar-columnar0+boxed-boxed0)), "ratio")
	l("skew.heavy_keys_per_op", float64(w.skewKeys), "count")
	l("skew.heavy_row_share", w.skewShare, "ratio")
	l("harness.build_s", buildTime.Seconds(), "s")
	l("harness.warmup_s", warmup.Seconds(), "s")
	l("host.calib_ms", median(calib), "ms")
	l("host.speed_factor", median(speeds), "ratio")
	l("host.raw_setup_s", median(setup), "s")
	l("host.raw_lat_p50_ms", mean(kindP50), "ms")
	l("host.raw_throughput_ops", median(roundRaw), "ops/s")
	l("host.raw_cpu_ms_per_op", 1000*cpuRaw/ops, "ms")

	res.kindOps = opsPerKind
	res.correct = res.failed == 0
	if err := w.vacuity(before, after, opsPerKind); err != nil {
		res.correct = false
		res.problems = append(res.problems, "vacuity: "+err.Error())
	}

	fmt.Printf("   %d cycles x %d rounds, %d client(s)\n", cycles, rounds, w.clients)
	fmt.Printf("   cold starts (s): %s   as measured\n", fmtList(setup, "%.3f"))
	fmt.Printf("   rounds (ops/s):  %s\n", fmtList(roundOps, "%.1f"))
	fmt.Printf("      as measured:  %s   spread %.1f%%\n", fmtList(roundRaw, "%.1f"), res.perLayer["client.round_spread_pct"].Value)
	fmt.Printf("   host.calib_ms:   %s   speed factor %.3f\n", fmtList(calib, "%.0f"), median(speeds))

	fmt.Printf("   phases (s):      cold starts %.1f  warm-up %.1f  timed %.1f\n", cold.Seconds(), warmup.Seconds(), timed.Seconds())
	fmt.Printf("   operations:      %d attempted, %d failed\n", res.attempted, res.failed)
	for i, p := range res.problems {
		if i == 5 {
			fmt.Printf("   ... and %d more\n", len(res.problems)-5)
			break
		}
		fmt.Printf("   FAILED: %s\n", p)
	}

	if cfg.trace {
		layers, err := runInproc(w, iters, bareIters, filepath.Join(cfg.out, name+".trace.json"), cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("in-process pass: %w", err)
		}
		for name, v := range layers {
			unit, ok := inprocUnits[name]
			if !ok {
				return nil, fmt.Errorf("in-process metric %s has no unit", name)
			}
			l(name, v, unit)
		}
	}
	printMetrics("end to end", res.endToEnd)
	if cfg.trace {
		printMetrics("per layer", res.perLayer)
	}
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func fmtList(xs []float64, format string) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += "  "
		}
		s += fmt.Sprintf(format, x)
	}
	return s
}

func printMetrics(title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("   -- %s\n", title)
	for _, n := range names {
		fmt.Printf("   %-40s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// resultLine renders the result line the benchmark contract asks for: with
// trace off the end-to-end metrics, with trace on the per-layer ones. It
// fails when a metric BENCHMARK.json names was not measured or has another
// unit.
func resultLine(sp *spec, results []*result, trace bool) ([]byte, error) {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	wanted := sp.EndToEnd
	if trace {
		wanted = sp.PerLayer
	}
	for _, r := range results {
		out.Correct = out.Correct && r.correct
		out.Attempted += r.attempted
		out.Failed += r.failed
		have := r.endToEnd
		if trace {
			have = r.perLayer
		}
		prefix := ""
		if len(results) > 1 {
			prefix = r.workload + "."
		}
		for _, m := range wanted {
			v, ok := have[m.Name]
			if !ok {
				return nil, fmt.Errorf("%s: metric %s of BENCHMARK.json was not measured", r.workload, m.Name)
			}
			if v.Unit != m.Unit {
				return nil, fmt.Errorf("%s: metric %s has unit %s, BENCHMARK.json says %s", r.workload, m.Name, v.Unit, m.Unit)
			}
			out.Metrics[prefix+m.Name] = v
		}
	}
	return json.Marshal(out)
}

func main() {
	var cfg config
	var workload, record string
	var trace, runs int
	var selfcheck bool
	flag.StringVar(&cfg.root, "root", ".", "repository checkout to build tranced from")
	flag.StringVar(&workload, "workload", "", "workload to run (default: all of them)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&cfg.seconds, "seconds", 0, "length the timed rounds are sized for (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&trace, "trace", 1, "1 adds the in-process traced pass and reports the per-layer metrics; 0 reports the end-to-end ones")
	flag.BoolVar(&cfg.quick, "quick", false, "smoke-test sizes: two cold starts, two cycles per round")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run every workload in two sets and fail if an end-to-end median differs by more than its bound")
	flag.IntVar(&runs, "runs", 1, "with -selfcheck: runs per set, each on its own seed")
	flag.StringVar(&record, "record", "", "with -selfcheck: write every run's metrics to this JSON file")
	flag.Parse()
	cfg.trace = trace != 0

	if err := run(cfg, workload, selfcheck, runs, record); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(cfg config, workload string, selfcheck bool, runs int, record string) error {
	root, err := filepath.Abs(cfg.root)
	if err != nil {
		return err
	}
	cfg.root = root
	cfg.build = filepath.Join(root, ".bench_build")
	cfg.out = filepath.Join(root, "bench", "out")
	sp, err := readSpec(root)
	if err != nil {
		return err
	}
	if cfg.seconds <= 0 {
		cfg.seconds = sp.RunSeconds
	}
	if err := os.MkdirAll(cfg.build, 0o755); err != nil {
		return err
	}
	if selfcheck {
		return selfCheck(cfg, sp, runs, record)
	}
	names := workloadNames
	if workload != "" {
		names = []string{workload}
	}
	var results []*result
	for _, name := range names {
		r, err := runWorkload(cfg, name)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		results = append(results, r)
	}
	line, err := resultLine(sp, results, cfg.trace)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	for _, r := range results {
		if !r.correct {
			return fmt.Errorf("%s: %d failed operations or checks", r.workload, len(r.problems))
		}
	}
	return nil
}
