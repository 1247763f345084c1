package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/trance-go/trance"
	"github.com/trance-go/trance/internal/biomed"
	"github.com/trance-go/trance/internal/metrics"
	"github.com/trance-go/trance/internal/tpch"
)

// serverConfig sizes the preloaded datasets and the engine.
type serverConfig struct {
	Customers   int
	SkewFactor  int
	BiomedFull  bool
	Parallelism int
	Workers     int
	MaxLevel    int
	// MaxUploadBytes bounds POST /datasets request bodies.
	MaxUploadBytes int64
	// MaxDatasets bounds how many uploaded datasets the server holds at once,
	// and MaxDatasetBytes the decoded bytes it holds beyond the startup
	// preloads (uploads, and appends to any dataset), so neither an upload
	// loop nor an append loop can grow server memory without limit.
	MaxDatasets     int
	MaxDatasetBytes int64
	// SlowQuery, when positive, logs the full span tree of any request whose
	// trace wall time meets the threshold.
	SlowQuery time.Duration
}

func defaultServerConfig() serverConfig {
	return serverConfig{
		Customers: 100, Parallelism: 8, MaxLevel: 2,
		MaxUploadBytes: 32 << 20, MaxDatasets: 100, MaxDatasetBytes: 256 << 20,
	}
}

// queryEntry is one servable query family: a session-prepared query per
// nesting level over catalog datasets.
type queryEntry struct {
	name    string
	levels  []int
	queries map[int]*trance.SessionQuery
}

// latencyBuckets are the fixed upper bounds (seconds) of the per-route
// latency histogram exposed in the Prometheus exposition; observations above
// the last bound land only in the implicit +Inf bucket.
var latencyBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// routeStats accumulates per-(query, level, strategy) serving metrics.
type routeStats struct {
	Count        int64
	Errors       int64
	LastElapsed  time.Duration
	TotalElapsed time.Duration
	ShuffleBytes int64
	StageWall    map[string]time.Duration
	stageOrder   []string
	// ReplyBytes and ReplyTime total what runAndReply spent after the engine
	// returned: collecting, encoding and writing the body. The latency
	// histogram observes only the engine's own Elapsed.
	ReplyBytes int64
	ReplyTime  time.Duration
	// Hist counts run latencies per latencyBuckets bound; HistInf counts
	// observations above the last bound and HistSum totals all observed
	// latencies (seconds). Together they form one Prometheus histogram.
	Hist    [numLatencyBuckets]int64
	HistInf int64
	HistSum float64
}

// numLatencyBuckets mirrors len(latencyBuckets) as an array length (Go
// requires a constant there; init asserts they agree).
const numLatencyBuckets = 13

func init() {
	if len(latencyBuckets) != numLatencyBuckets {
		panic("tranced: numLatencyBuckets out of sync with latencyBuckets")
	}
}

// observe folds one run latency into the histogram.
func (st *routeStats) observe(d time.Duration) {
	secs := d.Seconds()
	st.HistSum += secs
	for i, b := range latencyBuckets {
		if secs <= b {
			st.Hist[i]++
			return
		}
	}
	st.HistInf++
}

// server is the tranced HTTP service: a catalog of named nested datasets
// (TPC-H and biomedical preloads registered at startup, ad-hoc JSON uploads
// at runtime) and session-prepared queries over them, served concurrently on
// one shared worker pool.
type server struct {
	mux     *http.ServeMux
	catalog *trance.Catalog
	cfg     serverConfig
	runCfg  trance.Config
	pool    *trance.Pool
	// preloaded is the decoded bytes the startup preloads hold; the
	// MaxDatasetBytes budget covers what the catalog holds beyond it.
	preloaded int64
	started   time.Time
	requests  atomic.Int64

	// qmu guards queries/order: uploads add servable entries at runtime.
	qmu     sync.RWMutex
	queries map[string]*queryEntry
	order   []string

	// upMu serializes dataset uploads so the capacity admission (count and
	// resident bytes vs MaxDatasets/MaxDatasetBytes) is atomic with
	// registration — concurrent uploads cannot all pass the check and
	// overshoot the bound together. Reads (queries, lists) are unaffected.
	upMu sync.Mutex

	// adhocSess is the one long-lived session every POST /query text is
	// prepared through: sessions share converted input rows per (dataset,
	// route), so however many distinct texts reference a dataset, the server
	// holds one value-shredded copy of it — not one per cached text.
	adhocSess *trance.Session

	// tqMu guards the bounded cache of prepared ad-hoc text queries
	// (POST /query): repeated texts skip parse/resolve/bind, and the plan
	// cache already dedupes compilation underneath.
	tqMu    sync.Mutex
	tqCache map[string]*trance.SessionQuery
	tqOrder []string

	mu    sync.Mutex
	stats map[string]*routeStats

	// traces is the bounded in-memory ring of recent request traces behind
	// X-Trance-Trace-Id and GET /trace/{id}.
	traces *trance.TraceRing
}

// maxTextQueryBytes bounds POST /query bodies; ad-hoc query texts are tiny.
const maxTextQueryBytes = 1 << 20

// maxTextQueryCache bounds how many prepared ad-hoc texts the server keeps
// (oldest evicted first; the underlying plan cache is bounded separately).
const maxTextQueryCache = 128

// newServer generates the preloaded datasets, registers them in the catalog,
// prepares every query family through catalog sessions, and wires the HTTP
// routes. Strategies compile lazily, exactly once each, on first request.
func newServer(cfg serverConfig) (*server, error) {
	runCfg := trance.DefaultConfig()
	runCfg.Parallelism = cfg.Parallelism
	s := &server{
		mux:     http.NewServeMux(),
		catalog: trance.NewCatalog(),
		cfg:     cfg,
		runCfg:  runCfg,
		pool:    trance.NewPool(cfg.Workers),
		started: time.Now(),
		queries: map[string]*queryEntry{},
		tqCache: map[string]*trance.SessionQuery{},
		stats:   map[string]*routeStats{},
		traces:  trance.NewTraceRing(0),
	}

	if err := tpch.ValidateLevel(cfg.MaxLevel); err != nil {
		return nil, err
	}
	tables := tpch.Generate(tpch.Config{
		Customers: cfg.Customers, OrdersPerCustomer: 6, LinesPerOrder: 4,
		Parts: 100, SkewFactor: cfg.SkewFactor, Seed: 1,
	})

	// The preloaded data is nothing special: it lands in the same catalog
	// uploads do, under namespaced names, and queries resolve it through
	// session bindings.
	flatEnv := tpch.Env(tpch.FlatToNested, 0, false)
	for name, bag := range tables.Inputs() {
		if err := s.catalog.Register("tpch/"+strings.ToLower(name), flatEnv[name], bag); err != nil {
			return nil, err
		}
	}
	for level := 0; level <= cfg.MaxLevel; level++ {
		nenv := tpch.Env(tpch.NestedToNested, level, false)
		name := fmt.Sprintf("tpch/ndb-l%d", level)
		if err := s.catalog.Register(name, nenv["NDB"], tpch.BuildNested(tables, level, true)); err != nil {
			return nil, err
		}
	}
	bioCfg := biomed.SmallConfig()
	if cfg.BiomedFull {
		bioCfg = biomed.FullConfig()
	}
	bioEnv := biomed.Env()
	for name, bag := range biomed.Generate(bioCfg) {
		if err := s.catalog.Register("biomed/"+strings.ToLower(name), bioEnv[name], bag); err != nil {
			return nil, err
		}
	}
	_, s.preloaded = s.footprint()

	// Prepare the query families over the catalog.
	classes := []tpch.QueryClass{tpch.FlatToNested, tpch.NestedToNested, tpch.NestedToFlat}
	for _, qc := range classes {
		entry := &queryEntry{name: "tpch/" + qc.String(), queries: map[int]*trance.SessionQuery{}}
		for level := 0; level <= cfg.MaxLevel; level++ {
			bindings := map[string]string{}
			for varName := range tpch.Env(qc, level, false) {
				if varName == "NDB" {
					bindings[varName] = fmt.Sprintf("tpch/ndb-l%d", level)
				} else {
					bindings[varName] = "tpch/" + strings.ToLower(varName)
				}
			}
			sess := s.catalog.NewSession(trance.SessionOptions{
				Config: &s.runCfg, Pool: s.pool, Bindings: bindings,
			})
			sq, err := sess.PrepareNamed(fmt.Sprintf("%s/L%d", entry.name, level), tpch.Query(qc, level, false))
			if err != nil {
				return nil, fmt.Errorf("prepare %s L%d: %w", entry.name, level, err)
			}
			entry.queries[level] = sq
			entry.levels = append(entry.levels, level)
		}
		s.queries[entry.name] = entry
		s.order = append(s.order, entry.name)
	}

	bioBindings := map[string]string{}
	for varName := range bioEnv {
		bioBindings[varName] = "biomed/" + strings.ToLower(varName)
	}
	bioSess := s.catalog.NewSession(trance.SessionOptions{
		Config: &s.runCfg, Pool: s.pool, Bindings: bioBindings,
	})
	bsq, err := bioSess.PrepareNamed("biomed/step1", biomed.Steps()[0].Expr)
	if err != nil {
		return nil, fmt.Errorf("prepare biomed/step1: %w", err)
	}
	s.queries["biomed/step1"] = &queryEntry{
		name: "biomed/step1", levels: []int{0},
		queries: map[int]*trance.SessionQuery{0: bsq},
	}
	s.order = append(s.order, "biomed/step1")

	s.adhocSess = s.catalog.NewSession(trance.SessionOptions{Config: &s.runCfg, Pool: s.pool})

	s.mux.HandleFunc("GET /", s.handleIndex)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /query", s.handleQuery)
	s.mux.HandleFunc("POST /query", s.handleTextQuery)
	s.mux.HandleFunc("GET /explain", s.handleExplain)
	s.mux.HandleFunc("POST /explain", s.handleTextExplain)
	s.mux.HandleFunc("GET /strategies", s.handleStrategies)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /datasets", s.handleDatasetsList)
	s.mux.HandleFunc("POST /datasets", s.handleDatasetUpload)
	s.mux.HandleFunc("GET /datasets/{rest...}", s.handleDatasetGet)
	s.mux.HandleFunc("POST /datasets/{rest...}", s.handleDatasetMutate)
	s.mux.HandleFunc("GET /stats", s.handleDatasetStats)
	s.mux.HandleFunc("GET /trace/{id}", s.handleTrace)
	return s, nil
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]any{"error": fmt.Sprintf(format, args...)})
}

func (s *server) lookupQuery(name string) (*queryEntry, bool) {
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	e, ok := s.queries[name]
	return e, ok
}

func (s *server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		httpError(w, http.StatusNotFound, "no such endpoint %q", r.URL.Path)
		return
	}
	type qinfo struct {
		Name   string `json:"name"`
		Levels []int  `json:"levels"`
	}
	var qs []qinfo
	s.qmu.RLock()
	for _, name := range s.order {
		qs = append(qs, qinfo{Name: name, Levels: s.queries[name].levels})
	}
	s.qmu.RUnlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"service": "tranced",
		"endpoints": []string{
			"/query?name=&level=&strategy=&limit=",
			"/query (POST textual NRC query body, ?strategy=&limit= — see docs/QUERYLANG.md)",
			"/explain?name=&level=&strategy=&analyze= (plans before/after the rule-based optimizer; analyze=1 runs with per-operator stats; POST a textual query body)",
			"/datasets (GET list, POST ?name= upload NDJSON/JSON)",
			"/datasets/{name}/indexes (GET list, POST ?column= build — docs/INDEXES.md)",
			"/datasets/{name}/append (POST NDJSON/JSON rows)",
			"/datasets/{name}/delete (POST ?column=&value=)",
			"/stats?name= (dataset statistics: NDV, min/max, heavy keys)",
			"/trace/{id} (span tree of a recent request, by X-Trance-Trace-Id)",
			"/strategies", "/metrics (?format=prometheus for text exposition)", "/healthz",
		},
		"queries": qs,
	})
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "uptime_s": time.Since(s.started).Seconds()})
}

func (s *server) handleStrategies(w http.ResponseWriter, r *http.Request) {
	type sinfo struct {
		Name      string `json:"name"`
		Paper     string `json:"paper"`
		Shredded  bool   `json:"shredded"`
		SkewAware bool   `json:"skew_aware"`
	}
	var out []sinfo
	for _, s := range append(trance.AllStrategies(), trance.Auto) {
		for _, n := range slices.Compact([][2]string{{s.CLIName(), s.String()}, {nested(s.CLIName()), nested(s.String())}}) {
			out = append(out, sinfo{Name: n[0], Paper: n[1], Shredded: s.IsShredded(), SkewAware: s.SkewAware()})
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"strategies": out})
}

// handleDatasetsList reports every catalog dataset: the preloads and
// anything uploaded since startup.
func (s *server) handleDatasetsList(w http.ResponseWriter, r *http.Request) {
	type dinfo struct {
		Name   string `json:"name"`
		Type   string `json:"type"`
		Rows   int    `json:"rows"`
		Bytes  int64  `json:"bytes"`
		Chunks int    `json:"chunks"`
		Source string `json:"source"`
		// Query names the /query entry that scans the dataset, when one
		// exists (every uploaded dataset gets one).
		Query string `json:"query,omitempty"`
	}
	var out []dinfo
	for _, info := range s.catalog.List() {
		d := dinfo{
			Name: info.Name, Type: info.Type.String(),
			Rows: info.Rows, Bytes: info.Bytes, Chunks: info.Chunks, Source: info.Source,
		}
		if _, ok := s.lookupQuery(info.Name); ok {
			d.Query = info.Name
		}
		out = append(out, d)
	}
	writeJSON(w, http.StatusOK, map[string]any{"datasets": out})
}

var datasetNameRe = regexp.MustCompile(`^[a-zA-Z0-9._-]{1,64}$`)

// footprint counts the uploaded (source "json") datasets and the decoded
// bytes the catalog holds beyond what startup preloaded: uploads, and appends
// to any dataset, uploaded or preloaded.
func (s *server) footprint() (count int, bytes int64) {
	for _, info := range s.catalog.List() {
		if info.Source == "json" {
			count++
		}
		bytes += info.Bytes
	}
	return count, bytes - s.preloaded
}

// handleDatasetUpload ingests an ad-hoc JSON dataset: the body is NDJSON or
// a JSON array, the nested schema is inferred (objects→tuples, arrays→bags,
// null/numeric widening), and the dataset becomes immediately queryable
// under datasets/<name> through every strategy via a prepared identity scan.
func (s *server) handleDatasetUpload(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if !datasetNameRe.MatchString(name) {
		httpError(w, http.StatusBadRequest, "dataset name must match %s (got %q)", datasetNameRe, name)
		return
	}
	qname := "datasets/" + name
	// Read the (bounded) body before taking the upload lock, so a slow
	// client cannot hold every other upload hostage on its connection.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes))
	if err != nil {
		status := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, "read upload %s: %v", qname, err)
		return
	}
	s.upMu.Lock()
	defer s.upMu.Unlock()
	if count, bytes := s.footprint(); count >= s.cfg.MaxDatasets || bytes >= s.cfg.MaxDatasetBytes {
		httpError(w, http.StatusInsufficientStorage,
			"upload limit reached (%d datasets, %d bytes resident; bounds %d / %d)",
			count, bytes, s.cfg.MaxDatasets, s.cfg.MaxDatasetBytes)
		return
	}
	info, err := s.catalog.RegisterJSON(qname, bytes.NewReader(body))
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, trance.ErrDatasetExists) {
			// The catalog's registration is the authoritative (race-free)
			// duplicate check.
			status = http.StatusConflict
		}
		httpError(w, status, "ingest %s: %v", qname, err)
		return
	}
	if info.Rows == 0 {
		// An empty upload is almost always a truncated pipe or the wrong
		// file; registering it would squat the name (there is no DELETE).
		s.catalog.Drop(qname)
		httpError(w, http.StatusBadRequest, "ingest %s: upload contains no rows", qname)
		return
	}
	// Prepare the identity scan over the new dataset so /query serves it
	// through every strategy (shredded routes value-shred the uploaded data
	// once, on first use per route).
	sess := s.catalog.NewSession(trance.SessionOptions{
		Config: &s.runCfg, Pool: s.pool,
		Bindings: map[string]string{"ds": qname},
	})
	scan := trance.ForIn("x", trance.V("ds"), trance.SingOf(trance.V("x")))
	sq, err := sess.PrepareNamed(qname, scan)
	if err != nil {
		s.catalog.Drop(qname)
		httpError(w, http.StatusBadRequest, "prepare %s: %v", qname, err)
		return
	}
	s.qmu.Lock()
	s.queries[qname] = &queryEntry{name: qname, levels: []int{0}, queries: map[int]*trance.SessionQuery{0: sq}}
	s.order = append(s.order, qname)
	s.qmu.Unlock()
	writeJSON(w, http.StatusCreated, map[string]any{
		"name":  qname,
		"type":  info.Type.String(),
		"rows":  info.Rows,
		"bytes": info.Bytes,
		"query": fmt.Sprintf("/query?name=%s", qname),
	})
}

// splitDatasetAction splits a /datasets/{rest...} path into the catalog
// dataset it addresses and the trailing action segment ("indexes", "append",
// "delete"). The dataset part resolves verbatim first (preloads like
// tpch/customer keep their namespaced names), then under the datasets/ prefix
// uploads live under.
func (s *server) splitDatasetAction(rest string) (name, action string, ok bool) {
	i := strings.LastIndex(rest, "/")
	if i <= 0 {
		return "", "", false
	}
	raw, action := rest[:i], rest[i+1:]
	if _, found := s.catalog.Info(raw); found {
		return raw, action, true
	}
	if _, found := s.catalog.Info("datasets/" + raw); found {
		return "datasets/" + raw, action, true
	}
	return "", "", false
}

// indexInfoJSON renders one catalog IndexInfo for the HTTP API.
func indexInfoJSON(ii trance.IndexInfo) map[string]any {
	return map[string]any{
		"dataset":    ii.Dataset,
		"column":     ii.Column,
		"keys":       ii.Keys,
		"nulls":      ii.Nulls,
		"rows":       ii.Rows,
		"generation": ii.Generation,
		"auto":       ii.Auto,
	}
}

// handleDatasetGet serves GET /datasets/{name}/indexes: the dataset's
// secondary indexes (auto-built and explicit), in column order.
func (s *server) handleDatasetGet(w http.ResponseWriter, r *http.Request) {
	rest := r.PathValue("rest")
	name, action, ok := s.splitDatasetAction(rest)
	if !ok || action != "indexes" {
		httpError(w, http.StatusNotFound, "no such endpoint /datasets/%s (GET supports /datasets/{name}/indexes)", rest)
		return
	}
	infos, _ := s.catalog.Indexes(name)
	out := make([]map[string]any, 0, len(infos))
	for _, ii := range infos {
		out = append(out, indexInfoJSON(ii))
	}
	writeJSON(w, http.StatusOK, map[string]any{"dataset": name, "indexes": out})
}

// handleDatasetMutate serves the catalog mutation endpoints:
//
//	POST /datasets/{name}/indexes?column=         build a secondary index
//	POST /datasets/{name}/append                  append NDJSON/JSON rows
//	POST /datasets/{name}/delete?column=&value=   delete rows by key
//
// Every mutation bumps the dataset's generation: prepared routes over it
// re-resolve on their next request, so an append is immediately visible and
// a new index is immediately planned with (see docs/INDEXES.md).
func (s *server) handleDatasetMutate(w http.ResponseWriter, r *http.Request) {
	rest := r.PathValue("rest")
	name, action, ok := s.splitDatasetAction(rest)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown dataset in /datasets/%s (see /datasets)", rest)
		return
	}
	switch action {
	case "indexes":
		column := r.URL.Query().Get("column")
		if column == "" {
			httpError(w, http.StatusBadRequest, "missing ?column= (a top-level scalar column; see /stats?name=%s)", name)
			return
		}
		ii, err := s.catalog.CreateIndex(name, column, r.URL.Query().Get("kind"))
		if err != nil {
			httpError(w, http.StatusBadRequest, "create index: %v", err)
			return
		}
		writeJSON(w, http.StatusCreated, indexInfoJSON(ii))
	case "append":
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes))
		if err != nil {
			status := http.StatusBadRequest
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				status = http.StatusRequestEntityTooLarge
			}
			httpError(w, status, "read append %s: %v", name, err)
			return
		}
		// Appends grow resident data; admit them under the same footprint
		// bound as uploads so an append loop cannot outgrow the server.
		s.upMu.Lock()
		defer s.upMu.Unlock()
		if count, bytes := s.footprint(); bytes >= s.cfg.MaxDatasetBytes {
			httpError(w, http.StatusInsufficientStorage,
				"upload limit reached (%d datasets, %d bytes resident; bound %d)",
				count, bytes, s.cfg.MaxDatasetBytes)
			return
		}
		info, n, err := s.catalog.AppendJSON(name, bytes.NewReader(body))
		if err != nil {
			httpError(w, http.StatusBadRequest, "append %s: %v", name, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"name": name, "appended": n, "rows": info.Rows, "bytes": info.Bytes,
			"generation": info.Generation,
		})
	case "delete":
		q := r.URL.Query()
		column, val := q.Get("column"), q.Get("value")
		if column == "" || val == "" {
			httpError(w, http.StatusBadRequest, "missing ?column= and ?value= (value is a JSON scalar; bare text for string/date columns)")
			return
		}
		removed, err := s.catalog.DeleteJSON(name, column, val)
		if err != nil {
			httpError(w, http.StatusBadRequest, "delete %s: %v", name, err)
			return
		}
		info, ok := s.catalog.Info(name)
		if !ok {
			httpError(w, http.StatusNotFound, "delete %s: the dataset was dropped", name)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"name": name, "removed": removed, "rows": info.Rows,
			"generation": info.Generation,
		})
	default:
		httpError(w, http.StatusNotFound,
			"unknown action %q (POST supports /datasets/{name}/indexes, /append, /delete)", action)
	}
}

// handleDatasetStats reports one dataset's collected statistics — the
// row/byte counts, per-column NDV estimates, min/max bounds, and heavy-key
// histograms the cost model plans with (docs/COSTMODEL.md). "heavy_counts"
// says whether the heavy-key counts are exact ("exact": one chunk) or merged
// lower bounds ("lower_bound": several chunks).
func (s *server) handleDatasetStats(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	st, ok := s.catalog.Stats(name)
	if !ok {
		httpError(w, http.StatusBadRequest, "unknown dataset %q (see /datasets)", name)
		return
	}
	type heavyOut struct {
		Value    string  `json:"value"`
		Count    int64   `json:"count"`
		Fraction float64 `json:"fraction"`
	}
	type colOut struct {
		Name          string     `json:"name"`
		Type          string     `json:"type"`
		NDV           int64      `json:"ndv"`
		Exact         bool       `json:"ndv_exact"`
		Min           string     `json:"min,omitempty"`
		Max           string     `json:"max,omitempty"`
		Nulls         int64      `json:"nulls"`
		HeavyFraction float64    `json:"heavy_fraction"`
		Heavy         []heavyOut `json:"heavy_keys,omitempty"`
	}
	cols := make([]colOut, 0, len(st.Columns))
	for _, c := range st.Columns {
		co := colOut{
			Name: c.Name, Type: c.Type.String(), NDV: c.NDV, Exact: c.Exact,
			Nulls: c.Nulls, HeavyFraction: c.HeavyFraction,
		}
		if c.Min != nil {
			co.Min = trance.FormatValue(c.Min)
		}
		if c.Max != nil {
			co.Max = trance.FormatValue(c.Max)
		}
		for _, hk := range c.Heavy {
			co.Heavy = append(co.Heavy, heavyOut{Value: hk.Value, Count: hk.Count, Fraction: hk.Fraction})
		}
		cols = append(cols, co)
	}
	heavyCounts := "exact"
	if st.Chunks > 1 {
		heavyCounts = "lower_bound"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"name":         name,
		"rows":         st.Rows,
		"bytes":        st.Bytes,
		"chunks":       st.Chunks,
		"heavy_counts": heavyCounts,
		"generation":   st.Generation,
		"columns":      cols,
	})
}

// route is what a /query or /explain request resolved to: the prepared query
// and strategy to run, and how metrics keys, replies and errors name it.
type route struct {
	name      string // served query name; "adhoc" for POSTed text
	level     int
	sq        *trance.SessionQuery
	strat     trance.Strategy
	stratName string
	what      string // names the route in error messages
}

// key is the route's /metrics key.
func (rt route) key() string { return fmt.Sprintf("%s/L%d/%s", rt.name, rt.level, rt.stratName) }

// readsTop reports whether the route's name asks for a shredded run's top bag:
// shred and shred-skew, not shred+unshred(-skew), which reply nested.
func (rt route) readsTop() bool { return rt.stratName == "shred" || rt.stratName == "shred-skew" }

// paper is the paper's name for s as the route's name reads it.
func (rt route) paper(s trance.Strategy) string {
	if rt.readsTop() {
		return s.String()
	}
	return nested(s.String())
}

// nested is a strategy's CLI or paper name read nested: a shredded route's is
// its Shred+Unshred (shred → shred+unshred), any other's its own.
func nested(name string) string {
	return strings.NewReplacer("shred", "shred+unshred", "SHRED", "SHRED+UNSHRED").Replace(name)
}

// strategyParam parses ?strategy= (default standard), writing a 400 and
// returning ok=false for an unknown name.
func strategyParam(w http.ResponseWriter, r *http.Request) (strat trance.Strategy, name string, ok bool) {
	name = r.URL.Query().Get("strategy")
	if name == "" {
		name = "standard"
	}
	if strat, ok = trance.ParseStrategy(name); !ok {
		httpError(w, http.StatusBadRequest, "unknown strategy %q (see /strategies)", name)
	}
	return strat, name, ok
}

// limitParam parses ?limit= (default 20; 0 = all rows), writing a 400 and
// returning ok=false for a malformed one.
func limitParam(w http.ResponseWriter, r *http.Request) (limit int, ok bool) {
	limit = 20
	if ls := r.URL.Query().Get("limit"); ls != "" {
		var err error
		if limit, err = strconv.Atoi(ls); err != nil || limit < 0 {
			httpError(w, http.StatusBadRequest, "bad limit %q", ls)
			return 0, false
		}
	}
	return limit, true
}

// resolveRoute resolves the name/level/strategy parameters GET /query and
// GET /explain share, writing a 400 and returning ok=false on any bad
// parameter.
func (s *server) resolveRoute(w http.ResponseWriter, r *http.Request) (route, bool) {
	q := r.URL.Query()
	rt := route{name: q.Get("name")}
	entry, ok := s.lookupQuery(rt.name)
	if !ok {
		httpError(w, http.StatusBadRequest, "unknown query %q (see / for the catalog)", rt.name)
		return rt, false
	}
	if lv := q.Get("level"); lv != "" {
		var err error
		rt.level, err = strconv.Atoi(lv)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad level %q", lv)
			return rt, false
		}
	}
	rt.sq, ok = entry.queries[rt.level]
	if !ok {
		httpError(w, http.StatusBadRequest, "query %s has no level %d (levels %v)", rt.name, rt.level, entry.levels)
		return rt, false
	}
	rt.strat, rt.stratName, ok = strategyParam(w, r)
	rt.what = fmt.Sprintf("%s (%s)", rt.name, rt.stratName)
	return rt, ok
}

// textRoute reads the query text and ?strategy= that POST /query and
// POST /explain share, writing a 4xx and returning ok=false on an oversized or
// empty body or an unknown strategy. The text is not prepared yet: rt.sq is
// for the caller to fill from textQuery.
func textRoute(w http.ResponseWriter, r *http.Request) (src string, rt route, ok bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxTextQueryBytes))
	if err != nil {
		status := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, "read query text: %v", err)
		return "", rt, false
	}
	if src = strings.TrimSpace(string(body)); src == "" {
		httpError(w, http.StatusBadRequest, "empty query text (POST the query as the request body)")
		return "", rt, false
	}
	rt.name = "adhoc"
	rt.strat, rt.stratName, ok = strategyParam(w, r)
	rt.what = fmt.Sprintf("(%s)", rt.stratName)
	return src, rt, ok
}

// handleQuery evaluates one prepared query: name + level + strategy → JSON
// rows. Bad requests (unknown query/level/strategy, compile failures) are
// 4xx; engine failures are 5xx; neither can crash the process.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	rt, ok := s.resolveRoute(w, r)
	if !ok {
		return
	}
	limit, ok := limitParam(w, r)
	if !ok {
		return
	}
	t, r := s.startTrace(w, r, "GET /query "+rt.name)
	defer s.finishTrace(t)
	t.Span().Set("route", rt.key())
	s.runAndReply(w, r, t, rt, limit, map[string]any{"query": rt.name, "level": rt.level, "trace_id": t.ID})
}

// textQuery returns a prepared session query for an ad-hoc query text,
// serving repeats from a bounded cache. Only successful preparations are
// cached, so a text that failed because its dataset had not been uploaded
// yet is re-resolved on retry.
func (s *server) textQuery(src string) (*trance.SessionQuery, error) {
	s.tqMu.Lock()
	if sq, ok := s.tqCache[src]; ok {
		s.tqMu.Unlock()
		return sq, nil
	}
	s.tqMu.Unlock()
	// Prepare outside the lock: compilation can be slow and the plan cache
	// already guarantees each (query, strategy) compiles once. The shared
	// ad-hoc session dedupes the converted input rows across texts.
	sq, err := s.adhocSess.PrepareText("adhoc", src)
	if err != nil {
		return nil, err
	}
	s.tqMu.Lock()
	defer s.tqMu.Unlock()
	if cached, ok := s.tqCache[src]; ok {
		return cached, nil // a concurrent request won the race; share its binding
	}
	for len(s.tqCache) >= maxTextQueryCache && len(s.tqOrder) > 0 {
		delete(s.tqCache, s.tqOrder[0])
		s.tqOrder = s.tqOrder[1:]
	}
	s.tqCache[src] = sq
	s.tqOrder = append(s.tqOrder, src)
	return sq, nil
}

// handleTextQuery evaluates an ad-hoc textual NRC query (docs/QUERYLANG.md)
// POSTed as the request body against the catalog's datasets — preloaded and
// uploaded alike; names that aren't identifiers are backquoted, e.g.
//
//	for c in `tpch/customer` union { { name := c.c_name } }
//
// The query's free variables resolve against the catalog, compilation goes
// through the bounded plan cache under the query fingerprint, and rows come
// back as typed JSON like GET /query. Lex, parse, type, and resolution
// errors return 400 with a multi-line caret diagnostic in "error"; nothing a
// client posts can crash the process.
func (s *server) handleTextQuery(w http.ResponseWriter, r *http.Request) {
	src, rt, ok := textRoute(w, r)
	if !ok {
		return
	}
	limit, ok := limitParam(w, r)
	if !ok {
		return
	}
	t, r := s.startTrace(w, r, "POST /query")
	defer s.finishTrace(t)

	psp := t.Span().Child("parse")
	var err error
	rt.sq, err = s.textQuery(src)
	psp.End()
	if err != nil {
		s.record(rt, nil, true)
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.runAndReply(w, r, t, rt, limit, map[string]any{
		"query":       rt.name,
		"fingerprint": rt.sq.Prepared().Fingerprint()[:12],
		"trace_id":    t.ID,
	})
}

// handleExplain renders a served query's compiled plans before and after the
// rule-based optimizer pass (predicate pushdown, select fusion, constant
// folding) plus its rule-hit counters: name + level + strategy → text. The
// same parameters /query takes; compilation happens through the plan cache,
// so explaining a route never recompiles a served query.
func (s *server) handleExplain(w http.ResponseWriter, r *http.Request) {
	rt, ok := s.resolveRoute(w, r)
	if !ok {
		return
	}
	s.explainAndReply(w, r, rt, map[string]any{"query": rt.name, "level": rt.level})
}

// handleTextExplain renders the compiled plans of an ad-hoc textual query
// (the POST /query body format, same ?strategy= parameter) without running
// it — the serving-side way to check whether a pushed-down predicate planned
// as an index scan (the `[index col=…]` operator annotation, docs/INDEXES.md).
func (s *server) handleTextExplain(w http.ResponseWriter, r *http.Request) {
	src, rt, ok := textRoute(w, r)
	if !ok {
		return
	}
	var err error
	if rt.sq, err = s.textQuery(src); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.explainAndReply(w, r, rt, map[string]any{"query": rt.name})
}

// explainAndReply writes the route's explain text merged into out. With
// ?analyze=1 (/ true / yes) the route IS executed, with per-operator
// instrumentation over the bound catalog data, and the plans that ran render
// actual rows/wall beside the static annotations plus a q-error summary
// (EXPLAIN ANALYZE, docs/OBSERVABILITY.md).
func (s *server) explainAndReply(w http.ResponseWriter, r *http.Request, rt route, out map[string]any) {
	analyze := false
	switch strings.ToLower(r.URL.Query().Get("analyze")) {
	case "1", "true", "yes":
		analyze = true
	}
	var text string
	var err error
	if analyze {
		var res *trance.Result
		if res, err = rt.sq.Run(r.Context(), rt.strat, trance.Analyze()); err == nil {
			text = res.ExplainAnalyze()
		}
	} else {
		text, err = rt.sq.Prepared().Explain(rt.strat)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "explain %s: %v", rt.what, err)
		return
	}
	out["strategy"] = rt.paper(rt.strat)
	out["analyze"] = analyze
	out["explain"] = text
	writeJSON(w, http.StatusOK, out)
}

// routeStatsLocked returns the route's stats entry, creating it; s.mu is held.
func (s *server) routeStatsLocked(rt route) *routeStats {
	key := rt.key()
	st, ok := s.stats[key]
	if !ok {
		st = &routeStats{StageWall: map[string]time.Duration{}}
		s.stats[key] = st
	}
	return st
}

// recordReply folds one written reply body into the route's stats.
func (s *server) recordReply(rt route, bytes int64, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.routeStatsLocked(rt)
	st.ReplyBytes += bytes
	st.ReplyTime += d
}

// record folds one run's outcome and engine metrics into the route's stats.
func (s *server) record(rt route, res *trance.Result, failed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.routeStatsLocked(rt)
	st.Count++
	if failed {
		st.Errors++
	}
	if res == nil {
		return
	}
	st.LastElapsed = res.Elapsed
	st.TotalElapsed += res.Elapsed
	st.ShuffleBytes += res.Metrics.ShuffleBytes
	st.observe(res.Elapsed)
	for _, sw := range res.Metrics.StageWall {
		if _, seen := st.StageWall[sw.Stage]; !seen {
			st.stageOrder = append(st.stageOrder, sw.Stage)
		}
		st.StageWall[sw.Stage] += sw.Wall
	}
}

// snapshotStats deep-copies every route's stats under the lock, so the
// metrics encoders (JSON and Prometheus alike) marshal from a private copy
// with the lock released — a slow scrape client never blocks serving.
func (s *server) snapshotStats() map[string]*routeStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]*routeStats, len(s.stats))
	for key, st := range s.stats {
		cp := *st
		cp.StageWall = make(map[string]time.Duration, len(st.StageWall))
		for stage, w := range st.StageWall {
			cp.StageWall[stage] = w
		}
		cp.stageOrder = append([]string(nil), st.stageOrder...)
		out[key] = &cp
	}
	return out
}

// handleMetrics reports serving counters, the compilation cache, and the
// accumulated per-stage wall times of every served route. The default body
// is JSON; ?format=prometheus (or a text/plain Accept header, what a
// Prometheus scraper sends) switches to the text exposition format.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	if format == "" && strings.Contains(r.Header.Get("Accept"), "text/plain") {
		format = "prometheus"
	}
	switch format {
	case "", "json":
	case "prometheus":
		s.writeMetricsProm(w)
		return
	default:
		httpError(w, http.StatusBadRequest, "unknown metrics format %q (json or prometheus)", format)
		return
	}

	type stageMs struct {
		Stage string  `json:"stage"`
		Ms    float64 `json:"ms"`
	}
	type routeOut struct {
		Count        int64     `json:"count"`
		Errors       int64     `json:"errors"`
		LastMs       float64   `json:"last_elapsed_ms"`
		TotalMs      float64   `json:"total_elapsed_ms"`
		ShuffleBytes int64     `json:"shuffle_bytes"`
		StageWallMs  []stageMs `json:"stage_wall_ms"`
		ReplyBytes   int64     `json:"reply_bytes"`
		ReplyMs      float64   `json:"reply_ms"`
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

	routes := make(map[string]routeOut, len(s.stats))
	for key, st := range s.snapshotStats() {
		ro := routeOut{
			Count: st.Count, Errors: st.Errors,
			LastMs: ms(st.LastElapsed), TotalMs: ms(st.TotalElapsed),
			ShuffleBytes: st.ShuffleBytes,
			StageWallMs:  []stageMs{},
			ReplyBytes:   st.ReplyBytes,
			ReplyMs:      ms(st.ReplyTime),
		}
		for _, stage := range st.stageOrder {
			ro.StageWallMs = append(ro.StageWallMs, stageMs{Stage: stage, Ms: ms(st.StageWall[stage])})
		}
		routes[key] = ro
	}

	doc := map[string]any{
		"uptime_s": time.Since(s.started).Seconds(),
		"requests": s.requests.Load(),
		"workers":  s.pool.Workers(),
		"datasets": len(s.catalog.Names()),
		"routes":   routes,
	}
	// Every registered process-wide metric, its dotted path nested one level;
	// a labelled family is its label value → count object.
	for _, m := range metrics.Gather() {
		var v any = m.Value
		if m.Values != nil {
			v = m.Values
		}
		group, key, nested := strings.Cut(m.Path, ".")
		if !nested {
			doc[group] = v
		} else if sub, ok := doc[group].(map[string]any); ok {
			sub[key] = v
		} else {
			doc[group] = map[string]any{key: v}
		}
	}
	writeJSON(w, http.StatusOK, doc)
}
