// Command rdfserved serves SPARQL queries over HTTP against a dataset
// loaded once at startup (N-Triples file, generated LUBM scale, or a
// durable data directory), using the engines from this repository:
//
//	rdfserved -lubm 1 -addr :8080
//	rdfserved -data graph.nt -max-concurrent 16 -timeout 10s
//
//	curl 'localhost:8080/query?engine=emptyheaded&query=SELECT+?x+WHERE+{...}'
//	curl localhost:8080/stats
//
// The store is live: POST /update applies an N-Triples insert/delete patch
// ('+'/no prefix inserts, '-' deletes) against a delta overlay while
// queries keep serving, and -compact-every periodically drains the delta
// into a freshly indexed base swapped in under a new epoch:
//
//	rdfserved -data graph.nt -compact-every 30s
//	curl -X POST --data-binary $'-<http://a> <http://p> <http://b> .\n' localhost:8080/update
//
// With -data-dir the store is durable: every applied patch is written to a
// write-ahead log (fsynced per -fsync) before it publishes, compactions
// persist the base as an mmap-able segment file, and a restart boots from
// segment + log replay instead of reloading -data (which then only seeds
// the directory on its very first boot; -lubm seeds likewise, and neither
// is required once the directory exists). It is also the fast way to boot a
// large dataset: the segment is mmap'd, not parsed, and -fsync off skips
// the per-update fsync. The server listens immediately and answers 503
// {"wal_replay":true} until recovery finishes; SIGTERM seals the log so the
// next boot knows the shutdown was clean:
//
//	rdfserved -data graph.nt -data-dir /var/lib/rdf -fsync 50ms -compact-every 30s
//
// Observability: GET /metrics serves Prometheus text exposition, every
// query is traced (?explain=1 returns the span tree, /debug/queries the
// last 128), -slow-query logs queries over the threshold as structured
// records (-log json for machine-readable output), and -debug-addr opens a
// separate ops listener with net/http/pprof.
//
// Distributed serving: workers and a coordinator each load the same
// dataset with the same -shards N; workers serve per-shard drains at
// POST /shard/query, and the coordinator answers /query by fanning shard
// sub-queries out to its fleet with health checking, retries, hedging, and
// graceful partial degradation (internal/cluster):
//
//	rdfserved -lubm 1 -shards 4 -shard-role worker -shard-id 0 -addr :9001
//	rdfserved -lubm 1 -shards 4 -shard-role coordinator \
//	    -cluster-workers http://localhost:9001,http://localhost:9002,http://localhost:9003
//
// With -loadgen it instead acts as a load generator against a running
// server, reporting throughput and latency percentiles:
//
//	rdfserved -loadgen -url http://localhost:8080 -clients 8 -requests 400 -lubm-queries 1,2,8
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // -debug-addr ops listener
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	// Serving flags.
	data := flag.String("data", "", "N-Triples input file")
	lubmScale := flag.Int("lubm", 0, "generate a LUBM dataset at this scale instead of loading a file")
	addr := flag.String("addr", ":8080", "listen address")
	defEngine := flag.String("engine", "emptyheaded", "default engine for requests without ?engine=: "+strings.Join(repro.EngineNames(), " | "))
	cacheSize := flag.Int("plan-cache", 256, "compiled-plan LRU capacity")
	maxConc := flag.Int("max-concurrent", 0, "max worker-pool slots (0 = GOMAXPROCS); a ?workers=N query holds N")
	maxQueryWorkers := flag.Int("max-query-workers", 0, "ceiling for per-request ?workers= intra-query parallelism (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-query timeout")
	queryTimeout := flag.Duration("query-timeout", 0, "hard per-request deadline ceiling capping both -timeout and ?timeout= (0 = none)")
	maxRows := flag.Int("max-rows", 0, "cap rows per query result, marked truncated (0 = default 4M, -1 = uncapped)")
	shards := flag.Int("shards", 0, "partition the store into N subject-hash shards and serve by scatter-gather (0/1 = unsharded)")
	compactEvery := flag.Duration("compact-every", 0, "background-compact the update delta at this interval (0 = only explicit POST /compact)")
	compactMinDelta := flag.Int("compact-min-delta", 0, "skip background compaction while the delta holds fewer operations")
	dataDir := flag.String("data-dir", "", "durable data directory (WAL + mmap-able base segment); -data/-lubm only seed its first boot")
	fsync := flag.String("fsync", "always", "WAL sync policy: always | off | group-commit interval like 50ms (with -data-dir)")

	// Cluster flags. Workers are symmetric: each loads the same dataset and
	// partitions it with the same deterministic code, so any worker can
	// serve any shard's drain and the coordinator's failover/hedging picks
	// among them freely.
	shardRole := flag.String("shard-role", "", "cluster role: worker (serve /shard/query drains) | coordinator (fan shard drains out to -cluster-workers); empty = standalone")
	shardID := flag.Int("shard-id", -1, "worker: nominal shard index for logs and ops tooling (workers are symmetric and serve every shard)")
	clusterWorkers := flag.String("cluster-workers", "", "coordinator: comma-separated worker base URLs (http://host:port), in shard assignment order")
	shardReplicas := flag.Int("shard-replicas", 0, "coordinator: candidate workers per shard — primary plus failover/hedge targets (0 = default 2)")
	shardAttempts := flag.Int("shard-attempts", 0, "coordinator: retry budget per shard drain (0 = default)")
	shardAttemptTimeout := flag.Duration("shard-attempt-timeout", 0, "coordinator: per-attempt first-byte timeout (0 = default)")
	shardHedgeAfter := flag.Duration("shard-hedge-after", 0, "coordinator: minimum hedge delay; the trigger is max(this, observed first-byte p99) (0 = default, negative disables hedging)")
	shardProbeInterval := flag.Duration("shard-probe-interval", 0, "coordinator: worker /healthz probe interval (0 = default)")

	// Observability flags.
	logFormat := flag.String("log", "text", "log format: text | json")
	slowQuery := flag.Duration("slow-query", 0, "log queries whose total duration exceeds this threshold (0 = off), e.g. 100ms")
	traceSample := flag.Int("trace-sample", 1, "trace every Nth query (1 = all, -1 = none); ?explain=1 always traces")
	debugAddr := flag.String("debug-addr", "", "separate ops listener serving net/http/pprof (empty = off)")
	version := flag.Bool("version", false, "print build version and exit")

	// Loadgen flags.
	loadgen := flag.Bool("loadgen", false, "run as a load generator against -url instead of serving")
	urlFlag := flag.String("url", "http://localhost:8080", "loadgen: server base URL")
	clients := flag.Int("clients", 8, "loadgen: concurrent clients")
	requests := flag.Int("requests", 0, "loadgen: total requests (0 = 100 per client)")
	lgEngine := flag.String("lg-engine", "", "loadgen: ?engine= to request (empty = server default)")
	lgQuery := flag.String("query", "", "loadgen: one SPARQL query text")
	lubmQueries := flag.String("lubm-queries", "", "loadgen: comma-separated LUBM query numbers, e.g. 1,2,8")
	lgScale := flag.Int("scale", 1, "loadgen: LUBM scale the server's dataset was generated at")
	flag.Parse()

	if *version {
		fmt.Printf("rdfserved %s\n", obs.Build())
		return
	}

	var handlerOpt slog.Handler
	switch *logFormat {
	case "json":
		handlerOpt = slog.NewJSONHandler(os.Stderr, nil)
	case "text":
		handlerOpt = slog.NewTextHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "rdfserved: bad -log %q (want text or json)\n", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handlerOpt)
	slog.SetDefault(logger)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	if *loadgen {
		if err := runLoadGen(*urlFlag, *clients, *requests, *lgEngine, *lgQuery, *lubmQueries, *lgScale, *timeout); err != nil {
			fatal("loadgen failed", "error", err)
		}
		return
	}

	if *data == "" && *lubmScale == 0 && *dataDir == "" {
		fatal("provide -data FILE, -lubm SCALE, or an initialized -data-dir DIR")
	}

	if *debugAddr != "" {
		// net/http/pprof registers on the default mux; serving it on its own
		// listener keeps profiling endpoints off the query port.
		go func() {
			logger.Info("debug listener (pprof)", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "error", err)
			}
		}()
	}

	// Listen before loading: boot can be slow (a durable boot replays the
	// WAL; a cold one parses N-Triples and builds indexes), and health
	// checkers want the socket open from the first moment. The boot handler
	// answers 503 on every route until the real handler swaps in.
	var handler atomic.Pointer[http.Handler]
	boot := bootHandler(*dataDir != "")
	handler.Store(&boot)
	httpSrv := &http.Server{Addr: *addr, Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*handler.Load()).ServeHTTP(w, r)
	})}
	go func() {
		logger.Info("listening (booting)", "addr", *addr, "version", obs.Build().Version, "revision", obs.Build().Revision)
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal("listen failed", "error", err)
		}
	}()

	var ds *repro.Dataset
	var err error
	start := time.Now()
	switch {
	case *dataDir != "":
		opts := []repro.DatasetOption{repro.WithDataDir(*dataDir), repro.WithFsync(*fsync), repro.WithShards(*shards)}
		if *lubmScale > 0 {
			opts = append(opts, repro.WithLUBM(*lubmScale))
		}
		ds, err = repro.OpenDataset(*data, opts...)
		if err != nil {
			fatal("opening data dir", "dir", *dataDir, "error", err)
		}
		rec := ds.Durable().Recovered()
		logger.Info("opened durable store",
			"dir", *dataDir, "triples", ds.NumTriples(), "took", time.Since(start).Round(time.Millisecond).String(),
			"fsync", *fsync, "replayed_records", rec.Records, "replayed_ops", rec.Ops, "clean_shutdown", rec.Sealed)
	case *lubmScale > 0:
		ds = repro.GenerateLUBM(*lubmScale, 0)
		logger.Info("generated LUBM dataset",
			"scale", *lubmScale, "triples", ds.NumTriples(), "took", time.Since(start).Round(time.Millisecond).String())
	default:
		ds, err = repro.OpenDataset(*data)
		if err != nil {
			fatal("loading dataset", "file", *data, "error", err)
		}
		logger.Info("loaded dataset",
			"file", *data, "triples", ds.NumTriples(), "took", time.Since(start).Round(time.Millisecond).String())
	}

	cfg := server.Config{
		DefaultEngine:   *defEngine,
		PlanCacheSize:   *cacheSize,
		MaxConcurrent:   *maxConc,
		MaxQueryWorkers: *maxQueryWorkers,
		DefaultTimeout:  *timeout,
		MaxRows:         *maxRows,
		CompactEvery:    *compactEvery,
		CompactMinDelta: *compactMinDelta,
		Logger:          logger,
		SlowQuery:       *slowQuery,
		TraceSample:     *traceSample,
	}
	if ds.Durable() != nil {
		// Hand the replayed live store over as-is — wrapping ds.Store()
		// would silently drop the WAL-replayed delta overlay. Sharding was
		// already applied at open time (WithShards → durable.Options).
		cfg.Live = ds.Live()
		cfg.Durable = ds.Durable()
	} else {
		cfg.Store = ds.Store()
		cfg.Shards = *shards
	}
	cfg.QueryTimeout = *queryTimeout
	var coord *cluster.Coordinator
	switch *shardRole {
	case "":
	case "worker":
		if *shards <= 1 {
			fatal("-shard-role worker requires -shards > 1 (the worker endpoint serves per-shard drains)")
		}
		logger.Info("cluster worker: serving /shard/query drains", "shard_id", *shardID, "shards", *shards)
	case "coordinator":
		if *shards <= 1 {
			fatal("-shard-role coordinator requires -shards > 1")
		}
		var workers []string
		for _, addr := range strings.Split(*clusterWorkers, ",") {
			if a := strings.TrimSpace(addr); a != "" {
				workers = append(workers, a)
			}
		}
		if len(workers) == 0 {
			fatal("-shard-role coordinator requires -cluster-workers URL,URL,...")
		}
		coord, err = cluster.New(cluster.Config{
			Workers:  workers,
			Shards:   *shards,
			Replicas: *shardReplicas,
			Policy: cluster.Policy{
				MaxAttempts:    *shardAttempts,
				AttemptTimeout: *shardAttemptTimeout,
				HedgeAfter:     *shardHedgeAfter,
				ProbeInterval:  *shardProbeInterval,
			},
			Logger: logger,
		})
		if err != nil {
			fatal("configuring cluster", "error", err)
		}
		coord.Start()
		cfg.Cluster = coord
		logger.Info("cluster coordinator: fanning shard drains out to workers",
			"workers", len(workers), "shards", *shards)
	default:
		fatal("bad -shard-role (want worker or coordinator)", "role", *shardRole)
	}
	srv, err := server.New(cfg)
	if err != nil {
		fatal("starting server", "error", err)
	}
	if *shards > 1 {
		logger.Info("partitioned into subject-hash shards (scatter-gather execution)", "shards", *shards)
	}
	if *compactEvery > 0 {
		logger.Info("background compactor enabled", "every", compactEvery.String(), "min_delta", *compactMinDelta)
	}
	if *slowQuery > 0 {
		logger.Info("slow-query log enabled", "threshold", slowQuery.String())
	}

	ready := srv.Handler()
	handler.Store(&ready)
	logger.Info("serving", "addr", *addr, "default_engine", *defEngine)

	// Graceful shutdown: finish in-flight queries (up to 15s) on SIGINT or
	// SIGTERM, then seal the WAL so the next boot knows the shutdown was
	// clean.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	logger.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Error("shutdown failed", "error", err)
	}
	srv.Close()
	if coord != nil {
		coord.Close()
	}
	if err := ds.Close(); err != nil {
		logger.Error("closing dataset", "error", err)
	} else if ds.Durable() != nil {
		logger.Info("sealed WAL (clean shutdown)")
	}
	logger.Info("bye")
}

// bootHandler answers every request 503 while the dataset loads (for a
// durable boot, that includes WAL replay): health checkers can tell
// "booting" from "down" without waiting for the store to open.
func bootHandler(walReplay bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]any{"status": "starting", "wal_replay": walReplay})
	})
}

func runLoadGen(url string, clients, requests int, engine, queryText, lubmQueries string, scale int, timeout time.Duration) error {
	var queries []string
	if queryText != "" {
		queries = append(queries, queryText)
	}
	if lubmQueries != "" {
		for _, part := range strings.Split(lubmQueries, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || !slices.Contains(repro.LUBMQueryNumbers, n) {
				return fmt.Errorf("bad -lubm-queries entry %q (valid numbers: %v)", part, repro.LUBMQueryNumbers)
			}
			queries = append(queries, repro.LUBMQuery(n, scale))
		}
	}
	if len(queries) == 0 {
		return errors.New("loadgen: provide -query or -lubm-queries")
	}
	report, err := bench.RunLoadGen(context.Background(), bench.LoadGenConfig{
		URL:      url,
		Queries:  queries,
		Engine:   engine,
		Clients:  clients,
		Requests: requests,
		Timeout:  timeout,
	})
	if err != nil {
		return err
	}
	fmt.Print(report.String())
	if report.Errors > 0 {
		return fmt.Errorf("%d requests failed", report.Errors)
	}
	return nil
}
