package server

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/stats"
)

// LatencyStats summarizes observed query latencies (successful and failed
// requests alike; queue wait included). Percentiles are interpolated from
// the same fixed-bucket histograms /metrics exports, so the two surfaces
// can never disagree about the same window.
type LatencyStats struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// EngineLatency summarizes one engine's execution latency: cursor open to
// end of stream. Queue wait is excluded; response encoding is included,
// because under streaming the engine enumerates concurrently with the
// encoder — open-to-last-row wall time is the execution. (A slow client
// therefore stretches this number; cross-check against the global latency
// split when a single engine's tail looks anomalous.) Its purpose is to
// let loadgen runs attribute tail latency to an engine.
type EngineLatency struct {
	Count uint64  `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	// HoldEWMAMs is the engine's worker-pool slot-hold EWMA — the number
	// admission control multiplies by queue depth for requests naming this
	// engine. Kept per engine so the pairwise baselines (orders of
	// magnitude slower) cannot inflate Retry-After for the WCOJ engines.
	HoldEWMAMs float64 `json:"hold_ewma_ms"`
}

// ShardingStats reports the horizontal partition layout and the merge
// cursors' cumulative drain balance when the server runs sharded.
type ShardingStats struct {
	Shards int `json:"shards"`
	// OwnedTriples[i] counts triples whose subject shard i owns.
	OwnedTriples []int `json:"owned_triples"`
	// ReplicatedTriples[i] counts triples copied to shard i for their
	// object (the replicated-by-object index backing cross-subject joins).
	ReplicatedTriples []int `json:"replicated_triples"`
	// MergeRowsDelivered[i] is the cumulative number of rows shard i has
	// contributed to scatter-gather merge cursors; a skewed distribution
	// means the subject hash is not spreading the queried entities.
	MergeRowsDelivered []int64 `json:"merge_rows_delivered"`
	// ShardsPruned counts (group, shard) scatter targets skipped because
	// per-shard statistics proved they could not contribute rows. Zero on
	// a workload that should prune means the scatter is paying full fan-out
	// on every query — the regression this counter exists to catch.
	ShardsPruned int64 `json:"shards_pruned"`
	// GroupsPlanned counts root-covered groups compiled into scatter plans.
	GroupsPlanned int64 `json:"groups_planned"`
	// PlanReuseHits counts queries answered from a cached scatter plan
	// (decomposition, pruning, probe choice, and the per-shard sub-queries
	// all reused). Near-zero under a repeated-query workload means the plan
	// cache is not interning queries to stable pointers.
	PlanReuseHits int64 `json:"plan_reuse_hits"`
	// PlansCompiled counts scatter-plan cache misses.
	PlansCompiled int64 `json:"plans_compiled"`
	// PlansDeclined counts compiled plans the cost model ran on the
	// unsharded store instead of scattering: transport would have cost at
	// least as much as the join.
	PlansDeclined int64 `json:"plans_declined"`
}

// DurabilityStats reports the storage engine behind a durable server: the
// write-ahead log's size and fsync activity, what boot-time recovery found,
// and the mmap'd base segment (internal/durable).
type DurabilityStats struct {
	// FsyncPolicy is the log's sync policy in -fsync flag syntax:
	// "always", "off", or a group-commit interval like "50ms".
	FsyncPolicy string `json:"fsync_policy"`
	// WALBytes is the current log file size; it returns to zero when a
	// compaction persists its segment and truncates the log.
	WALBytes int64 `json:"wal_bytes"`
	// WALRecords counts patch records appended by this process (boot-time
	// replays are under ReplayedRecords instead).
	WALRecords uint64 `json:"wal_records"`
	// WALSyncs counts fsyncs issued; LastFsyncMs is the age of the newest.
	WALSyncs    uint64  `json:"wal_syncs"`
	LastFsyncMs float64 `json:"last_fsync_ms"`
	// WALFailed reports the log's latched-failed state: a write or fsync
	// error poisoned the log, updates are being refused, and /healthz is
	// answering 503 {"wal":"failed"}.
	WALFailed bool `json:"wal_failed"`
	// ReplayedRecords/ReplayedOps describe boot-time WAL recovery;
	// TornBytesTruncated is how much torn tail it cut off the log.
	ReplayedRecords    int   `json:"replayed_records"`
	ReplayedOps        int   `json:"replayed_ops"`
	TornBytesTruncated int64 `json:"torn_bytes_truncated"`
	// CleanShutdown reports whether the log ended with a seal record at
	// boot (false after a crash).
	CleanShutdown bool `json:"clean_shutdown"`
	// SegmentBytes is the base segment file's size; SegmentsMapped counts
	// open mappings (superseded segments stay mapped until shutdown
	// because pinned cursors may still read them); Mmap is false when the
	// platform fell back to heap reads.
	SegmentBytes   int64 `json:"segment_bytes"`
	SegmentsMapped int   `json:"segments_mapped"`
	Mmap           bool  `json:"mmap"`
	// CompactionsPersisted counts segment files written by this process.
	CompactionsPersisted uint64 `json:"compactions_persisted"`
}

// LiveStats reports the write path: delta overlay sizes, the epoch counter,
// and compaction activity (internal/live).
type LiveStats struct {
	// Epoch increments on every base swap (compaction, re-sharding); the
	// plan cache is keyed by it.
	Epoch uint64 `json:"epoch"`
	// BaseTriples is the immutable base's size; DeltaInserts and
	// DeltaTombstones are the netted pending operations over it;
	// OverlayTriples = BaseTriples - DeltaTombstones + DeltaInserts is what
	// queries see.
	BaseTriples     int `json:"base_triples"`
	DeltaInserts    int `json:"delta_inserts"`
	DeltaTombstones int `json:"delta_tombstones"`
	OverlayTriples  int `json:"overlay_triples"`
	// PinnedReaders counts cursors currently pinned to the present epoch
	// state.
	PinnedReaders int64 `json:"pinned_readers"`
	// Updates counts applied /update patches; TriplesInserted and
	// TriplesDeleted are their cumulative effective (non-noop) operations.
	Updates         uint64 `json:"updates"`
	TriplesInserted uint64 `json:"triples_inserted"`
	TriplesDeleted  uint64 `json:"triples_deleted"`
	// Compactions counts base swaps; the Last fields describe the most
	// recent one.
	Compactions        uint64  `json:"compactions"`
	LastCompactMs      float64 `json:"last_compact_ms"`
	LastCompactDrained int     `json:"last_compact_drained"`
}

// Stats is the /stats payload.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Triples       int     `json:"triples"`
	Terms         int     `json:"terms"`
	// IndexMemoryBytes estimates the heap held by trie indexes built so
	// far (flat-trie arenas: values, bit words, rank directories, CSR
	// offsets, set headers), across the base store and all shards. Lazily
	// built indexes appear here as traffic warms them; the counter resets
	// when a compaction swaps in a fresh base.
	IndexMemoryBytes int    `json:"index_memory_bytes"`
	Queries          uint64 `json:"queries"`
	Errors           uint64 `json:"errors"`
	Timeouts         uint64 `json:"timeouts"`
	// Rejected counts requests turned away by admission control (429):
	// their estimated queue wait exceeded their remaining deadline.
	Rejected uint64 `json:"rejected"`
	// Panics counts handler panics recovered by the middleware (each one
	// answered 500 instead of killing the process). Nonzero means a bug —
	// the counter exists so it pages instead of hiding in logs.
	Panics uint64 `json:"panics"`
	// Active is requests currently being handled end-to-end (queueing,
	// executing, or encoding).
	Active int `json:"active"`
	// InFlightSlots is worker-pool slots currently held by executing
	// queries (a ?workers=N query holds N).
	InFlightSlots int `json:"in_flight_slots"`
	// QueueDepth is requests waiting for worker-pool slots.
	QueueDepth    int                      `json:"queue_depth"`
	ByEngine      map[string]uint64        `json:"by_engine"`
	EngineLatency map[string]EngineLatency `json:"engine_latency"`
	PlanCache     CacheStats               `json:"plan_cache"`
	Latency       LatencyStats             `json:"latency"`
	// Sharding is present only when the server partitioned its store
	// (Config.Shards > 1).
	Sharding *ShardingStats `json:"sharding,omitempty"`
	// Cluster is present only on a coordinator (Config.Cluster): worker
	// fleet health and the scatter-gather robustness counters (retries,
	// hedges, failovers, partial results).
	Cluster *cluster.Stats `json:"cluster,omitempty"`
	// Chooser reports the statistics-driven layout ledger: adaptive
	// layout choices and how often they flipped the paper's 1-in-256
	// rule.
	Chooser stats.ChooserSnapshot `json:"chooser"`
	// Durability is present only on durable servers (Config.Durable).
	Durability *DurabilityStats `json:"durability,omitempty"`
	// Live reports the write path: delta sizes, epoch, compactions.
	Live *LiveStats `json:"live,omitempty"`
}

// engStat is one engine's counters: request count, an execution-latency
// histogram for percentiles (the same one /metrics exports), and the
// slot-hold EWMA admission control reads.
type engStat struct {
	count    uint64
	hist     *obs.Hist
	max      time.Duration
	holdEWMA time.Duration
}

// metrics accumulates serving counters. All methods are safe for concurrent
// use.
type metrics struct {
	mu       sync.Mutex
	queries  uint64
	errors   uint64
	timeouts uint64
	rejected uint64
	active   int
	byEngine map[string]*engStat

	// lat distributes total request durations (queue wait included); it
	// backs both the /stats percentiles and the /metrics
	// rdf_query_latency_seconds histogram. max is tracked separately — a
	// bucketed histogram can only bound the maximum, not report it.
	lat *obs.Hist
	max time.Duration

	// holdSlots tracks worker-pool slots currently held, per engine
	// (beginHold/endHold) — the occupancy view estimateWait reads.
	holdSlots map[string]int

	// Write-path counters: applied patches and their cumulative effective
	// operations.
	updates         uint64
	triplesInserted uint64
	triplesDeleted  uint64

	// panics counts recovered handler panics; atomic because the recovery
	// middleware runs outside the request accounting and must never itself
	// contend (or fail) while the process is already in a bad state.
	panics atomic.Uint64
}

// panicked counts one recovered handler panic.
func (m *metrics) panicked() { m.panics.Add(1) }

// panicsCount reports recovered handler panics.
func (m *metrics) panicsCount() uint64 { return m.panics.Load() }

// engStatLocked returns (creating on demand) the named engine's counters.
// Caller holds m.mu.
func (m *metrics) engStatLocked(engine string) *engStat {
	es := m.byEngine[engine]
	if es == nil {
		es = &engStat{hist: obs.NewHist(obs.LatencyBuckets())}
		m.byEngine[engine] = es
	}
	return es
}

func newMetrics() *metrics {
	return &metrics{
		byEngine:  map[string]*engStat{},
		holdSlots: map[string]int{},
		lat:       obs.NewHist(obs.LatencyBuckets()),
	}
}

func (m *metrics) begin() {
	m.mu.Lock()
	m.active++
	m.mu.Unlock()
}

// end records one finished request: total duration (queue wait included)
// feeds the global latency stats; execDur, when positive, feeds the named
// engine's execution-latency ring. timeout implies error.
func (m *metrics) end(engine string, total, execDur time.Duration, isErr, isTimeout bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.active--
	m.queries++
	if engine != "" {
		es := m.engStatLocked(engine)
		es.count++
		if execDur > 0 {
			es.hist.ObserveDuration(execDur)
			if execDur > es.max {
				es.max = execDur
			}
		}
	}
	if isErr {
		m.errors++
	}
	if isTimeout {
		m.timeouts++
	}
	m.lat.ObserveDuration(total)
	if total > m.max {
		m.max = total
	}
}

// update records one applied /update patch and its effective operations.
func (m *metrics) update(inserted, deleted int) {
	m.mu.Lock()
	m.updates++
	m.triplesInserted += uint64(inserted)
	m.triplesDeleted += uint64(deleted)
	m.mu.Unlock()
}

// updateCounts snapshots the write-path counters.
func (m *metrics) updateCounts() (updates, inserted, deleted uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.updates, m.triplesInserted, m.triplesDeleted
}

// reject counts one admission-control rejection.
func (m *metrics) reject() {
	m.mu.Lock()
	m.rejected++
	m.mu.Unlock()
}

// beginHold records that a request for engine now holds that many
// worker-pool slots.
func (m *metrics) beginHold(engine string, slots int) {
	m.mu.Lock()
	m.holdSlots[engine] += slots
	m.mu.Unlock()
}

// endHold releases the occupancy accounting and folds one observed
// slot-hold duration into the named engine's EWMA. Hold times are kept
// strictly per engine: the pairwise baselines hold slots orders of
// magnitude longer than the WCOJ engines, and one shared EWMA would let a
// burst of slow-engine traffic pollute every later estimate even after the
// pool has drained. slots == 0 is a pure EWMA sample (tests use it to
// seed).
func (m *metrics) endHold(engine string, slots int, d time.Duration) {
	m.mu.Lock()
	if slots > 0 {
		if n := m.holdSlots[engine] - slots; n > 0 {
			m.holdSlots[engine] = n
		} else {
			delete(m.holdSlots, engine)
		}
	}
	es := m.engStatLocked(engine)
	if es.holdEWMA == 0 {
		es.holdEWMA = d
	} else {
		// α = 1/8: smooth enough to ride out one odd query, fresh enough
		// to track load shifts within a few dozen requests.
		es.holdEWMA += (d - es.holdEWMA) / 8
	}
	m.mu.Unlock()
}

// expectedHold estimates how long one pool slot will stay held: the
// slot-weighted mean of the hold EWMAs of the engines currently occupying
// the pool — queue wait is governed by who holds the slots, not by what
// the newcomer will run. With no (tracked) occupancy it falls back to the
// requester's own EWMA, and an engine with no samples yet reports 0 —
// admission control admits and learns rather than inheriting another
// engine's history.
func (m *metrics) expectedHold(requester string) time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	var total time.Duration
	slots := 0
	for eng, k := range m.holdSlots {
		if es := m.byEngine[eng]; es != nil && es.holdEWMA > 0 && k > 0 {
			total += es.holdEWMA * time.Duration(k)
			slots += k
		}
	}
	if slots > 0 {
		return total / time.Duration(slots)
	}
	if es := m.byEngine[requester]; es != nil {
		return es.holdEWMA
	}
	return 0
}

func (m *metrics) snapshot() (queries, errors, timeouts, rejected uint64, active int, byEngine map[string]uint64, engLat map[string]EngineLatency, lat LatencyStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	byEngine = make(map[string]uint64, len(m.byEngine))
	engLat = make(map[string]EngineLatency, len(m.byEngine))
	// Percentiles interpolate within their bucket, so the tail quantiles of
	// a small sample can overshoot the true maximum; clamping to the exactly
	// tracked max keeps the reported ladder plausible (p99 ≤ max, always).
	clamp := func(q, max time.Duration) float64 {
		if q > max {
			q = max
		}
		return ms(q)
	}
	for k, es := range m.byEngine {
		byEngine[k] = es.count
		el := EngineLatency{Count: es.count, HoldEWMAMs: ms(es.holdEWMA)}
		if hs := es.hist.Snapshot(); hs.Count > 0 {
			el.P50Ms = clamp(hs.QuantileDuration(0.50), es.max)
			el.P99Ms = clamp(hs.QuantileDuration(0.99), es.max)
		}
		engLat[k] = el
	}
	hs := m.lat.Snapshot()
	lat = LatencyStats{Count: hs.Count, MaxMs: ms(m.max)}
	if hs.Count > 0 {
		lat.MeanMs = hs.Sum / float64(hs.Count) * 1e3
		lat.P50Ms = clamp(hs.QuantileDuration(0.50), m.max)
		lat.P90Ms = clamp(hs.QuantileDuration(0.90), m.max)
		lat.P99Ms = clamp(hs.QuantileDuration(0.99), m.max)
	}
	return m.queries, m.errors, m.timeouts, m.rejected, m.active, byEngine, engLat, lat
}

// histSnapshots returns the latency histograms /metrics exports verbatim:
// the global request-duration histogram and one execution-latency
// histogram per engine. /stats percentiles above are interpolated from
// these same snapshots.
func (m *metrics) histSnapshots() (global obs.HistSnapshot, byEngine map[string]obs.HistSnapshot) {
	m.mu.Lock()
	defer m.mu.Unlock()
	byEngine = make(map[string]obs.HistSnapshot, len(m.byEngine))
	for k, es := range m.byEngine {
		byEngine[k] = es.hist.Snapshot()
	}
	return m.lat.Snapshot(), byEngine
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
