// Command tranced serves nested-data queries over HTTP: a catalog of named,
// typed datasets (TPC-H and biomedical preloads registered at startup,
// ad-hoc JSON uploads at runtime with inferred schemas) and compile-once/
// run-many prepared queries over them, on a shared bounded worker pool with
// per-stage engine metrics.
//
// Endpoints:
//
//	GET  /                 catalog of servable queries and endpoints
//	GET  /query            name + level + strategy → JSON result rows
//	GET  /datasets         every dataset: name, schema, rows, bytes, source
//	POST /datasets?name=X  upload NDJSON or a JSON array; schema is inferred
//	                       and the dataset becomes queryable immediately
//	GET  /strategies       the paper's evaluation strategies
//	GET  /metrics          serving counters, plan cache, per-stage wall times
//	GET  /healthz          liveness
//
// Example:
//
//	tranced -addr :8080 &
//	curl 'localhost:8080/query?name=tpch/nested-to-nested&level=2&strategy=shred&limit=3'
//	curl -X POST --data-binary @rows.ndjson 'localhost:8080/datasets?name=mine'
//	curl 'localhost:8080/query?name=datasets/mine&strategy=shred%2Bunshred'
//
// See docs/SERVING.md for the full reference.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"
)

// gcPercent is the collector's GOGC when the environment sets none. The
// collector runs each time the heap grows by gcPercent % of what survived the
// last cycle. What survives here is mostly the preloaded catalog, far less
// than the requests allocate, so a small resident catalog means many cycles,
// each marking all of it. On bench/'s nested_analytic workload (2 vCPU) 150
// runs 79 cycles where 100 runs 110, for 6.27 instead of 7.49 CPU ms per
// request at a peak RSS of 86 instead of 72 MiB.
const gcPercent = 150

func main() {
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(gcPercent)
	}
	cfg := defaultServerConfig()
	addr := flag.String("addr", ":8080", "listen address")
	debugAddr := flag.String("debug-addr", "", "optional separate listen address for net/http/pprof profiling endpoints (e.g. 127.0.0.1:6060); empty disables them")
	flag.IntVar(&cfg.Customers, "customers", cfg.Customers, "TPC-H customers to generate")
	flag.IntVar(&cfg.SkewFactor, "skew", cfg.SkewFactor, "TPC-H skew factor (0-4)")
	flag.IntVar(&cfg.Parallelism, "parallelism", cfg.Parallelism, "partitions per shuffle")
	flag.IntVar(&cfg.Workers, "workers", cfg.Workers, "shared worker pool size (0 = NumCPU)")
	flag.IntVar(&cfg.MaxLevel, "max-level", cfg.MaxLevel, "highest TPC-H nesting level to preload (0-4)")
	flag.BoolVar(&cfg.BiomedFull, "biomed-full", cfg.BiomedFull, "use the full-size biomedical dataset")
	flag.Int64Var(&cfg.MaxUploadBytes, "max-upload", cfg.MaxUploadBytes, "POST /datasets body size limit in bytes")
	flag.IntVar(&cfg.MaxDatasets, "max-datasets", cfg.MaxDatasets, "uploaded datasets held at once")
	flag.Int64Var(&cfg.MaxDatasetBytes, "max-dataset-bytes", cfg.MaxDatasetBytes, "decoded bytes held beyond the startup preloads (uploads and appends)")
	flag.DurationVar(&cfg.SlowQuery, "slow-query", cfg.SlowQuery, "log the full span tree of requests at least this slow (e.g. 250ms; 0 disables)")
	flag.Parse()

	start := time.Now()
	srv, err := newServer(cfg)
	if err != nil {
		log.Fatalf("tranced: %v", err)
	}
	log.Printf("tranced: prepared %d query families in %v, serving on %s", len(srv.queries), time.Since(start), *addr)

	if *debugAddr != "" {
		// Profiling stays off the service mux and (typically) on a loopback
		// address, so production scrapers and clients never see it.
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("tranced: pprof on http://%s/debug/pprof/", *debugAddr)
			ds := &http.Server{Addr: *debugAddr, Handler: dbg, ReadHeaderTimeout: 5 * time.Second}
			if err := ds.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("tranced: pprof server: %v", err)
			}
		}()
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
	}
	done := make(chan os.Signal, 1)
	signal.Notify(done, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-done
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
	}()
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("tranced: %v", err)
	}
}
