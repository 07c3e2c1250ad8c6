// Package server is the concurrent SPARQL serving layer over the engines in
// this repository: an HTTP endpoint that loads a dataset once and answers
// many queries against a shared store, the way production RDF stores expose
// their join engines.
//
// The store is live (internal/live): POST /update applies an N-Triples
// insert/delete patch to a delta overlay while the immutable base keeps
// serving, and a compaction — background (Config.CompactEvery), explicit
// (POST /compact), or ?compact=true on an update — drains the delta into a
// fresh base swapped in under a bumped epoch. In-flight queries pin their
// epoch; nothing blocks on the swap.
//
// The request pipeline is parse → normalize → plan-cache lookup (compile on
// miss) → cursor → streaming encoder:
//
//   - Queries are α-normalized (internal/query.Normalize) so requests that
//     differ only in variable naming share one compiled plan.
//   - Compiled plans are held in a bounded LRU keyed by store epoch +
//     normalized query + engine (each engine name is one configuration),
//     with hit/miss counters surfaced at /stats. The epoch in the key means a compaction can never
//     serve a plan compiled against dropped statistics: post-swap requests
//     miss and recompile against the new base. A miss binds the query's
//     constants into the plan template of its shape when one is cached,
//     and compiles only new shapes (see prepare).
//   - Execution is the engine.Cursor contract: every engine streams rows
//     and honours context cancellation, so responses are encoded straight
//     off the cursor — per-request memory is O(batch), first-byte latency
//     is independent of result size, and there is no detached execution:
//     when a request's deadline fires, its engine stops within one
//     cancellation stride and its worker-pool slots free deterministically.
//   - A weighted worker pool caps concurrently executing work; a request
//     with ?workers=N (intra-query parallelism) holds N slots. Admission
//     control rejects a request with 429 + Retry-After when its estimated
//     queue wait already exceeds its remaining deadline.
//   - Row caps are exact: ?query results hitting MaxRows carry
//     "truncated":true iff at least one further row existed (the cursor
//     probes one row past the cap — no after-the-fact trimming).
//
// Endpoints: GET/POST /query (params: query, engine, format, timeout,
// workers, offset), POST /update (N-Triples patch; param: compact),
// POST /compact, GET /healthz, GET /stats.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"mime"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/engines"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/store"
)

// Config parameterizes a Server. The zero value of every field gets a
// sensible default from New.
type Config struct {
	// Store is the loaded dataset; required unless Live is set.
	Store *store.Store
	// Live, when set, is served directly instead of wrapping Store in a
	// fresh live.Store — the handing-over path for stores that carry state
	// the server must not discard (a durable store's WAL-replayed delta
	// overlay, a pre-partitioned shard set). Shards is ignored in this
	// mode: partitioning is the caller's boot-time decision.
	Live *live.Store
	// Durable, when set, is the durability stack behind Live (WAL +
	// segment files); /stats then reports its counters under "durability"
	// and /healthz marks the store durable. It must wrap the same store as
	// Live. Serving does not require it: a durable store works through
	// Live alone, just without the introspection.
	Durable *durable.Store
	// DefaultEngine answers requests without ?engine=. Default
	// "emptyheaded".
	DefaultEngine string
	// PlanCacheSize bounds the compiled-plan LRU. Default 256 entries.
	PlanCacheSize int
	// MaxConcurrent bounds worker-pool slots (concurrently executing
	// work); further requests queue (and may time out waiting, or be
	// rejected by admission control). Default GOMAXPROCS.
	MaxConcurrent int
	// MaxQueryWorkers caps the per-request ?workers= intra-query
	// parallelism. Default GOMAXPROCS; it is additionally clamped to
	// MaxConcurrent so one request can never deadlock the pool.
	MaxQueryWorkers int
	// DefaultTimeout applies to requests without ?timeout=. Default 30s.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested ?timeout= values. Default 2m.
	MaxTimeout time.Duration
	// QueryTimeout, when > 0, is a hard per-request deadline ceiling that
	// caps both DefaultTimeout and client ?timeout= values: every /query
	// context is cancelled at most QueryTimeout after admission, so a
	// wedged cursor (a hung remote drain, a pathological join) can never
	// hold a worker-pool slot forever. A request that hits it gets a 504;
	// with ?explain=1 the 504 body carries the span tree captured so far,
	// showing where the deadline landed.
	QueryTimeout time.Duration
	// MaxRows caps the rows one query may return; results hitting the cap
	// come back marked "truncated" (exactly: only when more rows existed).
	// The cap is enforced at the cursor layer for every engine, bounding
	// rows in flight, not just response size. Default 4,000,000; negative
	// disables the cap.
	MaxRows int
	// Shards, when > 1, partitions the store into that many subject-hash
	// shards at startup (internal/shard) and answers every query by
	// scatter-gather over per-shard engine instances. /stats then reports
	// the per-shard layout and merge drain balance. 0 or 1 serves the
	// store unpartitioned.
	//
	// Pool accounting: a sharded request holds the same slot count as an
	// unsharded one (1, or ?workers=N), even though its scatter phase
	// drains up to Shards sub-queries concurrently — each sub-query covers
	// ~1/Shards of the data, so total work per request is roughly
	// unchanged and holds get shorter, but instantaneous parallelism is
	// multiplied. MaxConcurrent therefore bounds admitted queries, not
	// threads; CPU-bound sharded deployments should size it accordingly
	// (e.g. MaxConcurrent ≈ cores/Shards). Charging Shards slots per
	// request instead is the stricter alternative; see the ROADMAP's
	// shard-aware planning follow-up.
	Shards int
	// CompactEvery, when > 0, runs the background compactor: at that
	// interval, a non-empty delta (of at least CompactMinDelta operations)
	// is drained into a fresh base store swapped in under the next epoch.
	// Zero disables background compaction; POST /compact still works.
	CompactEvery time.Duration
	// CompactMinDelta is the background compactor's threshold: skip the
	// drain while the delta holds fewer netted operations. <= 1 compacts on
	// any non-empty delta.
	CompactMinDelta int
	// MaxUpdateBytes caps one /update request body. Default 8 MiB.
	MaxUpdateBytes int
	// Logger receives the server's structured log records (slow queries,
	// lifecycle events). Default slog.Default().
	Logger *slog.Logger
	// SlowQuery, when > 0, is the total-duration threshold above which a
	// finished query emits a structured slow-query record (query ID, engine,
	// duration, rows, the query text) at warn level. Zero disables the log;
	// the trace ring at /debug/queries captures slow queries either way.
	SlowQuery time.Duration
	// TraceSample controls span-tree capture: 1 (the default) traces every
	// query, N > 1 traces every Nth, negative disables tracing. ?explain=1
	// requests are always traced. The untraced path costs one nil check per
	// instrumentation site, so the default is to trace everything.
	TraceSample int
	// Cluster, when set, turns this server into a scatter-gather
	// coordinator: the store must be partitioned (Shards > 1 or a
	// pre-partitioned Live store), and every per-shard sub-query is served
	// by the coordinator's worker fleet (internal/cluster) instead of the
	// local shard engines — with health-gated worker selection, retries,
	// hedging, and graceful partial degradation (responses carry a
	// "partial" field and X-Partial trailer when a shard's rows could not
	// be recovered). The server does not own the coordinator: the caller
	// Starts and Closes it.
	Cluster *cluster.Coordinator
}

// defaultMaxRows bounds per-query result size unless overridden.
const defaultMaxRows = 4_000_000

// defaultMaxUpdateBytes bounds one /update body unless overridden.
const defaultMaxUpdateBytes = 8 << 20

// Server serves SPARQL queries (and updates) over one live store. Create
// with New; expose with Handler; call Close to stop background compaction.
type Server struct {
	cfg   Config
	ls    *live.Store
	cache *planCache
	pool  *wsem
	stats *metrics
	start time.Time

	log      *slog.Logger
	traces   *obs.TraceRing
	traceSeq atomic.Uint64 // TraceSample > 1 sampling counter

	stopCompact context.CancelFunc // nil unless CompactEvery > 0
	compactDone chan struct{}

	// engines holds one live engine wrapper per valid engine name. The
	// wrappers are cheap (each epoch's inner engine is built lazily inside
	// internal/live and cached until the next base swap), so slots are
	// created on demand under mu.
	mu      sync.Mutex
	engines map[string]*live.Engine

	// shardQ interns /shard/query sub-query texts to stable parsed
	// pointers (see internShardQuery).
	shardQMu sync.Mutex
	shardQ   map[string]*query.BGP
}

// knownEngine reports whether name is in the registry, without building
// anything — garbage ?engine= values must not allocate slots.
func knownEngine(name string) bool {
	for _, n := range engines.Names() {
		if n == name {
			return true
		}
	}
	return false
}

// New validates cfg, applies defaults, and returns a ready Server.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil && cfg.Live == nil {
		return nil, errors.New("server: Config.Store or Config.Live is required")
	}
	if cfg.DefaultEngine == "" {
		cfg.DefaultEngine = "emptyheaded"
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("server: Config.Shards must be >= 0, got %d", cfg.Shards)
	}
	ls := cfg.Live
	if ls == nil {
		var err error
		ls, err = live.NewStore(cfg.Store, live.Options{Shards: cfg.Shards})
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	if cfg.Cluster != nil && ls.Part() == nil {
		return nil, errors.New("server: Config.Cluster requires a partitioned store (Shards > 1)")
	}
	if cfg.PlanCacheSize <= 0 {
		cfg.PlanCacheSize = 256
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueryWorkers <= 0 {
		cfg.MaxQueryWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueryWorkers > cfg.MaxConcurrent {
		cfg.MaxQueryWorkers = cfg.MaxConcurrent
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 2 * time.Minute
	}
	if cfg.MaxRows == 0 {
		cfg.MaxRows = defaultMaxRows
	} else if cfg.MaxRows < 0 {
		cfg.MaxRows = 0 // 0 = uncapped from here on
	}
	if cfg.MaxUpdateBytes <= 0 {
		cfg.MaxUpdateBytes = defaultMaxUpdateBytes
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	s := &Server{
		cfg:     cfg,
		ls:      ls,
		cache:   newPlanCache(cfg.PlanCacheSize),
		pool:    newWsem(cfg.MaxConcurrent),
		stats:   newMetrics(),
		start:   time.Now(),
		log:     cfg.Logger,
		traces:  obs.NewTraceRing(traceRingSize),
		engines: map[string]*live.Engine{},
		shardQ:  map[string]*query.BGP{},
	}
	// Construct the default engine's inner instance now — it both validates
	// the name and front-loads any eager index construction (rdf3x sorts six
	// triple permutations) so the first request doesn't pay for it.
	defEng, err := s.engine(cfg.DefaultEngine)
	if err != nil {
		return nil, fmt.Errorf("server: default engine: %w", err)
	}
	if _, err := defEng.Inner(); err != nil {
		return nil, fmt.Errorf("server: default engine: %w", err)
	}
	if cfg.CompactEvery > 0 {
		ctx, cancel := context.WithCancel(context.Background())
		s.stopCompact = cancel
		s.compactDone = make(chan struct{})
		go func() {
			defer close(s.compactDone)
			ls.AutoCompact(ctx, live.CompactPolicy{
				Every:  cfg.CompactEvery,
				MinOps: cfg.CompactMinDelta,
				OnError: func(err error) {
					cfg.Logger.Error("background compaction failed", "error", err)
				},
			})
		}()
	}
	return s, nil
}

// Close stops background work (the auto-compactor); it does not flush the
// delta. Safe to call more than once.
func (s *Server) Close() {
	if s.stopCompact != nil {
		s.stopCompact()
		<-s.compactDone
		s.stopCompact = nil
	}
}

// Live exposes the server's live store (tests and embedding callers apply
// updates or force compactions through it directly).
func (s *Server) Live() *live.Store { return s.ls }

// Handler returns the HTTP handler with the /query, /update, /compact,
// /healthz, and /stats routes mounted, wrapped in per-request panic
// recovery. A sharded server additionally serves the cluster worker
// endpoint /shard/query — unless it is itself a coordinator, whose shard
// drains go to its worker fleet, never back to itself.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/update", s.handleUpdate)
	mux.HandleFunc("/compact", s.handleCompact)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/queries", s.handleDebugQueries)
	if s.ls.Part() != nil && s.cfg.Cluster == nil {
		mux.HandleFunc("/shard/query", s.handleShardQuery)
	}
	return s.recoverPanics(mux)
}

// engine returns the live engine wrapper for name, constructing it on first
// use. The wrapper is cheap; the expensive per-epoch inner engine (rdf3x
// sorts six permutation indexes) is built lazily inside internal/live under
// its own once, so building one engine never stalls requests on engines
// that already exist.
func (s *Server) engine(name string) (*live.Engine, error) {
	if !knownEngine(name) {
		// Produce the registry's canonical error without allocating a slot
		// (arbitrary client-supplied names must not grow the map).
		_, err := engines.New(name, s.ls.Base())
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if le, ok := s.engines[name]; ok {
		return le, nil
	}
	var le *live.Engine
	var err error
	if s.cfg.Cluster != nil {
		le, err = engines.NewClusterLive(name, s.ls, s.cfg.Cluster.Opener(name))
	} else {
		le, err = engines.NewLive(name, s.ls)
	}
	if err != nil {
		return nil, err
	}
	s.engines[name] = le
	return le, nil
}

// preparedQuery is one plan-cache entry: the interned normalized BGP and,
// for engines that separate compilation from execution (emptyheaded,
// logicblox, auto), its compiled plan tagged with the epoch it was
// compiled at. A template entry holds only the plan, epoch and cost. All
// fields are immutable and shared by concurrent executions.
type preparedQuery struct {
	bgp   *query.BGP
	plan  *plan.Plan // nil for engines that plan internally per execution
	epoch uint64     // epoch plan was compiled against (meaningful when plan != nil)
	// cost is the query's price (plan.Profile.Cost): it drives cache
	// eviction priority and is reported by EXPLAIN and the plan span.
	cost float64

	// template is the key of the template the plan was bound from or
	// became; "" when there is none.
	template string
}

// prepare resolves q to a cache entry for engineName, compiling on miss.
// The key carries the store epoch, so entries from before a compaction
// swap — whose plans were costed against statistics that no longer exist —
// can never be served afterwards; they age out of the LRU. Under sharding
// the cache holds the interned normalized BGP, and that interning is what
// makes the shard engine's own caches work: shard.Engine memoizes its
// scatter plan (decomposition, statistics-pruned targets, probe choice,
// per-shard sub-queries) per *query.BGP pointer, and hands every shard the
// same sub-query pointers so the per-shard engines' plan caches hit too —
// a repeated sharded query skips all per-shard planning, not just
// parse+normalize (/stats sharding.plan_reuse_hits counts these).
//
// On a text miss, an engine that compiles plans looks up a template: the
// plan compiled for q's shape (query.Shape — S/O constants lifted) under
// the same epoch and engine. Compilation is value-independent, so binding
// q's constants into a copy of the template (plan.Bind) gives exactly the
// plan compiling q would. A template miss compiles q and stores the plan
// as the shape's template unless it is empty. template reports "hit" or
// "miss", or "" when no template was consulted.
func (s *Server) prepare(engineName string, le *live.Engine, q *query.BGP) (pq *preparedQuery, hit bool, template string, err error) {
	norm, key := query.Normalize(q)
	prefix := "e" + strconv.FormatUint(le.Epoch(), 10) + "|" + engineName + "|"
	if pq, ok := s.cache.get(prefix + key); ok {
		return pq, true, "", nil
	}
	pq = &preparedQuery{bgp: norm}
	// Price the query for the eviction policy: expensive plans are the ones
	// worth keeping when the cache is under pressure. A profiling error just
	// leaves cost 0 (lowest keep-priority), and no template is consulted:
	// the query compiles, and fails validation, on its own.
	prof, perr := plan.ProfileQuery(norm, s.ls.Base())
	if perr == nil {
		pq.cost = prof.Cost()
	}
	var tkey string
	if compiles, sharded := compilesPlans(le); perr == nil && compiles && !sharded {
		tkey = "t|" + prefix + query.Shape(norm)
		if t, ok := s.cache.getTemplate(tkey); ok {
			pq.plan, pq.epoch = plan.Bind(t.plan, norm, s.ls.Dict()), t.epoch
			pq.template = tkey
			template = "hit"
		} else {
			template = "miss"
		}
	}
	if pq.plan == nil {
		p, epoch, ok, err := le.PlanFor(norm)
		if err != nil {
			return nil, false, "", err
		}
		if ok {
			pq.plan, pq.epoch = p, epoch
			if tkey != "" && !p.Empty {
				s.cache.add(tkey, &preparedQuery{plan: p, epoch: epoch, cost: pq.cost})
				pq.template = tkey
			}
		}
	}
	s.cache.add(prefix+key, pq)
	return pq, false, template, nil
}

// compilesPlans reports whether the wrapped engine compiles plans apart
// from executing them (emptyheaded, logicblox, auto), directly or as the
// per-shard engine behind the scatter-gather wrapper; sharded reports the
// latter. Only a direct one has templates. Either honours ExecOpts.Workers
// (shard.Engine forwards Workers to every shard), so a ?workers=N request
// on it is charged N slots; a sharded one is charged like an unsharded
// one, and the shard fan-out itself is deliberately not charged — see
// Config.Shards for the accounting trade-off.
func compilesPlans(le *live.Engine) (compiles, sharded bool) {
	eng, err := le.Inner()
	if err != nil {
		return false, false
	}
	if se, ok := eng.(*shard.Engine); ok {
		eng, sharded = se.ShardEngine(0), true
	}
	_, compiles = eng.(*engines.Engine)
	return compiles, sharded
}

// open starts the prepared query: the live engine reuses the cached plan
// when it still matches the current epoch (fast path and overlay base
// stream alike) and replans otherwise. Every engine returns a streaming,
// cancellable cursor — there is no detached fallback.
func (s *Server) open(le *live.Engine, pq *preparedQuery, opts engine.ExecOpts) (engine.Cursor, error) {
	return le.OpenPrepared(pq.bgp, pq.plan, pq.epoch, opts)
}

// estimateWait predicts how long a request for engineName needing n slots
// would queue: the slots that must drain before it can start, scaled by
// the slot-weighted hold EWMA of the engines currently occupying the pool
// (queue wait is governed by who holds the slots; the requester's own EWMA
// is only the fallback when occupancy is untracked). EWMAs are kept per
// engine, so a past burst of pairwise-baseline traffic never inflates the
// estimate — and Retry-After — once the pool is back to serving WCOJ
// queries; conversely a pool genuinely full of slow queries rejects fast
// engines honestly. It is a heuristic — the EWMA smooths over
// heterogeneous queries — but it only has to be right in order of
// magnitude: its job is to bounce requests whose deadline a saturated pool
// cannot possibly meet.
func (s *Server) estimateWait(engineName string, n int) time.Duration {
	inUse, _, queuedSlots := s.pool.stats()
	free := s.cfg.MaxConcurrent - inUse
	ahead := queuedSlots + n - free
	if ahead <= 0 {
		return 0
	}
	hold := s.stats.expectedHold(engineName)
	if hold == 0 {
		return 0 // no samples yet: admit and learn
	}
	rounds := (ahead + s.cfg.MaxConcurrent - 1) / s.cfg.MaxConcurrent
	return hold * time.Duration(rounds)
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// mediaType parses a Content-Type or Accept element down to its bare media
// type ("application/sparql-query; charset=utf-8" → "application/sparql-query").
func mediaType(header string) string {
	mt, _, err := mime.ParseMediaType(header)
	if err != nil {
		return ""
	}
	return mt
}

// queryText extracts the SPARQL text from the request: the raw body for
// POST application/sparql-query, the query form/URL parameter otherwise.
func queryText(r *http.Request) (string, error) {
	if r.Method == http.MethodPost && mediaType(r.Header.Get("Content-Type")) == "application/sparql-query" {
		b, err := io.ReadAll(io.LimitReader(r.Body, 1<<20+1))
		if err != nil {
			return "", err
		}
		if len(b) > 1<<20 {
			return "", errors.New("query body exceeds 1MiB")
		}
		return string(b), nil
	}
	return r.FormValue("query"), nil
}

// intParam parses a non-negative integer query parameter; missing means 0.
func intParam(r *http.Request, name string) (int, error) {
	v := r.FormValue(name)
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad %s %q (want a non-negative integer)", name, v)
	}
	return n, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use GET or POST")
		return
	}
	s.stats.begin()
	requestStart := time.Now()
	qid := obs.NextQueryID()
	w.Header().Set("X-Query-ID", qid)

	// ?explain=1 streams the result plus the captured trace; ?explain=plan
	// reports the planner's decisions without executing anything.
	explain := r.FormValue("explain")
	isExplain := explain == "1" || explain == "true"

	var tr *obs.Trace
	if isExplain || s.sampled() {
		tr = obs.NewTrace(qid)
	}
	root := tr.Root() // nil when untraced; every span call below no-ops

	engineName := ""
	var execDur time.Duration
	var execSp *obs.Span
	var snap *obs.TraceSnapshot
	// takeSnap finalizes the trace exactly once: into the ring, and (for
	// ?explain=1) into the response tail.
	takeSnap := func() *obs.TraceSnapshot {
		if snap == nil && tr != nil {
			tr.Engine = engineName
			snap = tr.Snapshot()
			s.traces.Add(snap)
		}
		return snap
	}
	finished := false
	finish := func(isErr, isTimeout bool) {
		if !finished {
			finished = true
			total := time.Since(requestStart)
			s.stats.end(engineName, total, execDur, isErr, isTimeout)
			if tr != nil {
				takeSnap()
				if s.cfg.SlowQuery > 0 && total >= s.cfg.SlowQuery {
					s.slowLog(snap, total, execSp.Rows(), isErr)
				}
			}
		}
	}
	defer finish(true, false) // overwritten by the explicit calls below

	text, err := queryText(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading query: %v", err)
		finish(true, false)
		return
	}
	if text == "" {
		httpError(w, http.StatusBadRequest, "missing query parameter")
		finish(true, false)
		return
	}
	if tr != nil {
		tr.Query = traceQuery(text)
	}

	requestedEngine := r.FormValue("engine")
	if requestedEngine == "" {
		requestedEngine = s.cfg.DefaultEngine
	}
	eng, err := s.engine(requestedEngine)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		finish(true, false)
		return
	}
	engineName = requestedEngine // only resolved engines reach the stats

	psp := root.Child("parse")
	q, err := query.ParseSPARQL(text)
	psp.End()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		finish(true, false)
		return
	}

	if explain == "plan" {
		// Plan-only: resolve the plan-cache entry and report the planner's
		// decisions. No pool slots, no cursor, nothing executes.
		err := s.explainPlan(w, qid, engineName, eng, q)
		finish(err != nil, false)
		return
	}

	timeout := s.cfg.DefaultTimeout
	if tv := r.FormValue("timeout"); tv != "" {
		d, err := time.ParseDuration(tv)
		if err != nil || d <= 0 {
			httpError(w, http.StatusBadRequest, "bad timeout %q (want a positive Go duration, e.g. 500ms)", tv)
			finish(true, false)
			return
		}
		if d > s.cfg.MaxTimeout {
			d = s.cfg.MaxTimeout
		}
		timeout = d
	}
	// QueryTimeout is the operator's hard ceiling: unlike MaxTimeout it
	// also caps the server's own default, so no request — however
	// configured — outlives it.
	if s.cfg.QueryTimeout > 0 && timeout > s.cfg.QueryTimeout {
		timeout = s.cfg.QueryTimeout
	}
	workers, err := intParam(r, "workers")
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		finish(true, false)
		return
	}
	if workers > s.cfg.MaxQueryWorkers {
		workers = s.cfg.MaxQueryWorkers // clamp, don't reject: the ceiling is an operator policy
	}
	if compiles, _ := compilesPlans(eng); !compiles {
		// Only the plans exec runs have a parallel enumeration — directly,
		// or per shard behind the scatter-gather wrapper, which forwards
		// Workers. Other engines run single-threaded regardless of
		// opts.Workers, so charging them N slots would waste pool capacity
		// and skew the admission EWMA.
		workers = 0
	}
	offset, err := intParam(r, "offset")
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		finish(true, false)
		return
	}
	// SPARQL solution modifiers map onto the same cursor-level knobs as the
	// request parameters: OFFSET clauses add to ?offset=, and LIMIT tightens
	// the server's row cap (never widens it — MaxRows stays the operator's
	// ceiling). LIMIT 0 is valid SPARQL: no rows, with the truncated flag
	// still exact (one row is probed to learn whether anything existed).
	offset += q.Offset
	maxRows := s.cfg.MaxRows
	limitZero := false
	if q.HasLimit {
		switch {
		case q.Limit == 0:
			limitZero = true
			maxRows = 1
		case maxRows == 0 || q.Limit < maxRows:
			maxRows = q.Limit
		}
	}

	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// Under cluster serving, install the degradation sink: remote drains
	// that exhaust their retry budget record the affected shard here (and
	// end cleanly) instead of failing the query, and the response carries
	// the partial flag. Without the sink installed, an unavailable shard
	// is a hard execution error.
	var partial *cluster.Partial
	if s.cfg.Cluster != nil {
		ctx, partial = cluster.WithPartial(ctx)
	}

	// tailSnap finalizes the trace for an error body when the client asked
	// for ?explain=1 — a 504's span tree shows where the deadline landed.
	tailSnap := func() *obs.TraceSnapshot {
		if !isExplain {
			return nil
		}
		return takeSnap()
	}

	// A ?workers=N query occupies N worker-pool slots: intra-query
	// parallelism is real CPU and is accounted like N single-threaded
	// queries.
	slots := 1
	if workers > 1 {
		slots = workers
	}

	// Admission control: if the queue wait this request would face already
	// exceeds its remaining deadline, fail fast with 429 + Retry-After
	// instead of letting it burn its deadline in the queue and 504.
	if deadline, ok := ctx.Deadline(); ok {
		// est == 0 (free pool or no samples yet for this engine) never
		// rejects — an already-expired deadline is the executor's 504, not
		// a 429.
		if est := s.estimateWait(engineName, slots); est > 0 && est > time.Until(deadline) {
			s.stats.reject()
			w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(est.Seconds()))))
			httpError(w, http.StatusTooManyRequests,
				"server saturated: estimated queue wait %v exceeds request deadline", est.Round(time.Millisecond))
			finish(true, false)
			return
		}
	}

	// Acquire worker slots; queue wait counts against the deadline.
	asp := root.Child("admission_wait")
	asp.SetAttr("slots", slots)
	if err := s.pool.acquire(ctx, slots); err != nil {
		asp.End()
		s.failCtx(w, ctx, tailSnap())
		finish(true, errors.Is(ctx.Err(), context.DeadlineExceeded))
		return
	}
	asp.End()
	acquired := time.Now()
	s.stats.beginHold(engineName, slots)
	release := sync.OnceFunc(func() {
		s.stats.endHold(engineName, slots, time.Since(acquired))
		s.pool.release(slots)
	})
	defer release()

	plsp := root.Child("plan")
	pq, hit, template, err := s.prepare(engineName, eng, q)
	if err != nil {
		plsp.End()
		httpError(w, http.StatusInternalServerError, "planning: %v", err)
		finish(true, false)
		return
	}
	annotatePlanSpan(plsp, pq, hit, template)
	plsp.End()

	execSp = root.Child("execute")
	execStart := time.Now()
	cur, err := s.open(eng, pq, engine.ExecOpts{
		Ctx:     obs.WithSpan(ctx, execSp),
		MaxRows: maxRows,
		Offset:  offset,
		Workers: workers,
	})
	if err != nil {
		execSp.SetAttr("error", err.Error())
		execSp.End()
		s.failExec(w, ctx, err, tailSnap())
		finish(true, errors.Is(err, context.DeadlineExceeded))
		return
	}
	defer cur.Close()

	// Pull the first block before committing the response status, so
	// failures during the pre-enumeration phases (GHD materialization,
	// pairwise pipelines, deadlines that fire before any output) still map
	// to proper HTTP errors. Errors after this point arrive mid-stream and
	// are reported in-band.
	src := &blockSource{cur: cur, execSp: execSp}
	src.pull()
	if src.err != nil && src.err != io.EOF {
		execDur = time.Since(execStart)
		execSp.End()
		s.failExec(w, ctx, src.err, tailSnap())
		finish(true, errors.Is(src.err, context.DeadlineExceeded))
		return
	}
	if limitZero {
		// LIMIT 0: the probed row is evidence, not output.
		src.limitZero()
	}

	// Present the caller's variable names: normalization renamed them, but
	// positions are preserved, so rows decode unchanged.
	meta := queryMeta{QueryID: qid, Engine: eng.Name(), Cache: "miss"}
	if hit {
		meta.Cache = "hit"
	}
	tookMs := func() float64 {
		execDur = time.Since(execStart)
		return ms(execDur)
	}
	// Truncation, mid-stream failures, and partial degradation are only
	// known after the body is committed; announce them as HTTP trailers
	// (the JSON body also carries them in trailing fields).
	w.Header().Set("Trailer", "X-Truncated, X-Error, X-Partial")
	encSp := root.Child("encode")
	var traceFn func() *obs.TraceSnapshot
	if isExplain {
		// The trace rides in the JSON tail; by the time the encoder asks for
		// it every row has been pulled, so the execute and encode spans can
		// close and the tree snapshot.
		traceFn = func() *obs.TraceSnapshot {
			execSp.End()
			encSp.End()
			return takeSnap()
		}
	}
	outFormat := format(r)
	if isExplain {
		outFormat = "json" // the trace is a JSON document; TSV cannot carry it
	}
	// partialFn reports the shards the cluster drains gave up on; it runs
	// after the last row (the sink is only fully populated once every
	// drain has finished), so the JSON tail and the trailer agree.
	var partialFn func() []cluster.PartialShard
	if partial != nil {
		partialFn = partial.Missing
	}
	var enc encodeResult
	switch outFormat {
	case "tsv":
		w.Header().Set("Content-Type", "text/tab-separated-values; charset=utf-8")
		encSp.SetAttr("format", "tsv")
		enc = writeTSV(w, q.Select, src, s.ls.Dict(), encSp)
		tookMs()
	default:
		w.Header().Set("Content-Type", "application/json")
		encSp.SetAttr("format", "json")
		enc = writeJSON(w, q.Select, src, s.ls.Dict(), meta, encSp, tookMs, partialFn, traceFn)
	}
	execSp.End()
	encSp.End()
	if enc.truncated {
		w.Header().Set("X-Truncated", "true")
	}
	if enc.err != nil {
		w.Header().Set("X-Error", enc.err.Error())
	}
	if partial != nil {
		if miss := partial.Missing(); len(miss) > 0 {
			w.Header().Set("X-Partial", partialTrailer(miss))
		}
	}
	finish(enc.err != nil, errors.Is(enc.err, context.DeadlineExceeded))
}

// partialTrailer renders the X-Partial trailer value, e.g.
// "shards=1:object-replicas,3:lost".
func partialTrailer(miss []cluster.PartialShard) string {
	var b strings.Builder
	b.WriteString("shards=")
	for i, m := range miss {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d:%s", m.Shard, m.Mode)
	}
	return b.String()
}

// failCtx maps a done context to 504 (deadline) or 503 (client cancelled).
// snap, when non-nil (?explain=1), rides in the error body so a timed-out
// request still explains where its deadline landed.
func (s *Server) failCtx(w http.ResponseWriter, ctx context.Context, snap *obs.TraceSnapshot) {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		errorJSON(w, http.StatusGatewayTimeout, snap, "query timed out")
		return
	}
	errorJSON(w, http.StatusServiceUnavailable, snap, "request cancelled")
}

// failExec maps a pre-stream execution error to an HTTP status.
func (s *Server) failExec(w http.ResponseWriter, ctx context.Context, err error, snap *obs.TraceSnapshot) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		s.failCtx(w, ctx, snap)
		return
	}
	errorJSON(w, http.StatusInternalServerError, snap, "executing: %v", err)
}

// errorJSON is httpError plus an optional trace snapshot in the body.
func errorJSON(w http.ResponseWriter, status int, snap *obs.TraceSnapshot, format string, args ...any) {
	if snap == nil {
		httpError(w, status, format, args...)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{
		"error": fmt.Sprintf(format, args...),
		"trace": snap,
	})
}

// format picks the response encoding: ?format=json|tsv, else the Accept
// header, else JSON.
func format(r *http.Request) string {
	switch r.FormValue("format") {
	case "tsv":
		return "tsv"
	case "json":
		return "json"
	}
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		if mediaType(strings.TrimSpace(part)) == "text/tab-separated-values" {
			return "tsv"
		}
	}
	return "json"
}

// handleUpdate applies one N-Triples patch (lines optionally prefixed '+'
// for insert — the default — or '-' for delete) to the delta overlay. With
// ?compact=true the delta is drained into a fresh base immediately after.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	limit := int64(s.cfg.MaxUpdateBytes)
	body, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading patch: %v", err)
		return
	}
	if int64(len(body)) > limit {
		httpError(w, http.StatusRequestEntityTooLarge, "patch exceeds %d bytes", limit)
		return
	}
	patch, err := live.ParsePatch(bytes.NewReader(body))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, err := s.ls.Apply(patch)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "applying patch: %v", err)
		return
	}
	s.stats.update(res.Inserted, res.Deleted)
	reply := map[string]any{
		"inserted":         res.Inserted,
		"deleted":          res.Deleted,
		"noops":            res.Noops,
		"delta_inserts":    res.DeltaInserts,
		"delta_tombstones": res.DeltaTombstones,
		"epoch":            res.Epoch,
	}
	if r.FormValue("compact") == "true" {
		cs, err := s.ls.Compact()
		if err != nil {
			httpError(w, http.StatusInternalServerError, "compacting: %v", err)
			return
		}
		reply["epoch"] = cs.Epoch
		reply["compacted"] = cs.Swapped
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(reply)
}

// handleCompact forces a compaction swap (a no-op on an empty delta).
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	cs, err := s.ls.Compact()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "compacting: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"epoch":       cs.Epoch,
		"compacted":   cs.Swapped,
		"drained":     cs.Drained,
		"duration_ms": ms(cs.Duration),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.ls.Stats()
	resp := map[string]any{
		"status":  "ok",
		"triples": st.OverlayTriples,
		"terms":   st.Terms,
		"epoch":   st.Epoch,
		"build":   obs.Build(),
	}
	status := http.StatusOK
	if s.cfg.Durable != nil {
		// A constructed server has finished boot replay by definition; the
		// true counterpart is served by rdfserved's boot handler, which
		// answers 503 {"wal_replay":true} until the durable store is open.
		resp["durable"] = true
		resp["wal_replay"] = false
		if s.cfg.Durable.WALFailed() {
			// The WAL latched failed: updates are being refused and this
			// process's durability guarantee is gone. Degrade honestly —
			// a cluster coordinator's health probes eject this worker, a
			// load balancer stops routing writes to it.
			resp["status"] = "degraded"
			resp["wal"] = "failed"
			status = http.StatusServiceUnavailable
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(resp)
}

// Stats snapshots the server's counters (also served at /stats).
func (s *Server) Stats() Stats {
	queries, errs, timeouts, rejected, active, byEngine, engLat, lat := s.stats.snapshot()
	updates, inserted, deleted := s.stats.updateCounts()
	inUse, queued, _ := s.pool.stats()
	var sharding *ShardingStats
	if part := s.ls.Part(); part != nil {
		ss := part.Stats()
		sharding = &ShardingStats{
			Shards:             len(ss),
			OwnedTriples:       make([]int, len(ss)),
			ReplicatedTriples:  make([]int, len(ss)),
			MergeRowsDelivered: make([]int64, len(ss)),
		}
		for i, sh := range ss {
			sharding.OwnedTriples[i] = sh.Owned
			sharding.ReplicatedTriples[i] = sh.Replicated
			sharding.MergeRowsDelivered[i] = sh.Delivered
		}
		ps := part.PlanStats()
		sharding.ShardsPruned = ps.ShardsPruned
		sharding.GroupsPlanned = ps.GroupsPlanned
		sharding.PlanReuseHits = ps.PlanReuseHits
		sharding.PlansCompiled = ps.PlansCompiled
		sharding.PlansDeclined = ps.PlansDeclined
	}
	var durability *DurabilityStats
	if s.cfg.Durable != nil {
		ds := s.cfg.Durable.Stats()
		durability = &DurabilityStats{
			FsyncPolicy:          ds.WAL.Policy.String(),
			WALBytes:             ds.WAL.Bytes,
			WALRecords:           ds.WAL.Records,
			WALSyncs:             ds.WAL.Syncs,
			LastFsyncMs:          ms(ds.WAL.LastSyncAge),
			WALFailed:            ds.WAL.Failed,
			ReplayedRecords:      ds.ReplayedRecords,
			ReplayedOps:          ds.ReplayedOps,
			TornBytesTruncated:   ds.TornBytes,
			CleanShutdown:        ds.CleanShutdown,
			SegmentBytes:         ds.SegmentBytes,
			SegmentsMapped:       ds.SegmentsMapped,
			Mmap:                 ds.Mapped,
			CompactionsPersisted: ds.CompactionsPersisted,
		}
	}
	var cstats *cluster.Stats
	if s.cfg.Cluster != nil {
		cs := s.cfg.Cluster.Stats()
		cstats = &cs
	}
	lst := s.ls.Stats()
	return Stats{
		UptimeSeconds:    time.Since(s.start).Seconds(),
		Triples:          lst.OverlayTriples,
		Terms:            lst.Terms,
		IndexMemoryBytes: s.ls.IndexMemoryBytes(),
		Queries:          queries,
		Errors:           errs,
		Timeouts:         timeouts,
		Rejected:         rejected,
		Panics:           s.stats.panicsCount(),
		Active:           active,
		InFlightSlots:    inUse,
		QueueDepth:       queued,
		ByEngine:         byEngine,
		EngineLatency:    engLat,
		PlanCache:        s.cache.stats(),
		Chooser:          stats.Default.Snapshot(),
		Latency:          lat,
		Sharding:         sharding,
		Cluster:          cstats,
		Durability:       durability,
		Live: &LiveStats{
			Epoch:              lst.Epoch,
			BaseTriples:        lst.BaseTriples,
			DeltaInserts:       lst.DeltaInserts,
			DeltaTombstones:    lst.DeltaTombstones,
			OverlayTriples:     lst.OverlayTriples,
			PinnedReaders:      lst.PinnedReaders,
			Updates:            updates,
			TriplesInserted:    inserted,
			TriplesDeleted:     deleted,
			Compactions:        lst.Compactions,
			LastCompactMs:      ms(lst.LastCompactDuration),
			LastCompactDrained: lst.LastCompactDrained,
		},
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Stats())
}
