package server

// prom.go serves GET /metrics in Prometheus text exposition format 0.0.4,
// hand-written via internal/obs (no client library dependency). Every
// counter /stats reports has a family here, plus the native histograms:
// request latency, per-engine execution latency, WAL fsync latency, merge
// batch sizes, and shards pruned per compiled scatter plan. The /stats
// percentiles are interpolated from these same histograms, so the two
// surfaces agree by construction.

import (
	"net/http"
	"strconv"

	"repro/internal/obs"
)

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	st := s.Stats()
	latHist, engHists := s.stats.histSnapshots()
	bi := obs.Build()

	w.Header().Set("Content-Type", obs.PromContentType)
	pw := obs.NewPromWriter(w)

	pw.Gauge("rdf_build_info", "Build metadata; the value is always 1.", 1,
		"version", bi.Version, "revision", bi.Revision, "go_version", bi.GoVersion)
	pw.Gauge("rdf_uptime_seconds", "Seconds since the server started.", st.UptimeSeconds)
	pw.Gauge("rdf_triples", "Triples visible to queries (base minus tombstones plus delta inserts).", float64(st.Triples))
	pw.Gauge("rdf_terms", "Distinct dictionary-encoded terms.", float64(st.Terms))
	pw.Gauge("rdf_index_memory_bytes", "Estimated heap held by trie indexes across base and shards.", float64(st.IndexMemoryBytes))

	pw.Counter("rdf_queries_total", "Queries handled (successful and failed).", float64(st.Queries))
	pw.Counter("rdf_query_errors_total", "Queries that ended in an error (timeouts included).", float64(st.Errors))
	pw.Counter("rdf_query_timeouts_total", "Queries that hit their deadline.", float64(st.Timeouts))
	pw.Counter("rdf_queries_rejected_total", "Requests bounced by admission control (HTTP 429).", float64(st.Rejected))
	pw.Counter("rdf_panics_total", "Handler panics recovered by the middleware (answered 500).", float64(st.Panics))
	pw.Gauge("rdf_active_requests", "Requests currently in flight end to end.", float64(st.Active))
	pw.Gauge("rdf_inflight_slots", "Worker-pool slots currently held by executing queries.", float64(st.InFlightSlots))
	pw.Gauge("rdf_queue_depth", "Requests waiting for worker-pool slots.", float64(st.QueueDepth))

	for _, eng := range obs.SortedKeys(st.ByEngine) {
		pw.Counter("rdf_queries_by_engine_total", "Queries handled, by engine.", float64(st.ByEngine[eng]), "engine", eng)
	}
	pw.Histogram("rdf_query_latency_seconds", "Total request duration, queue wait included.", latHist)
	for _, eng := range obs.SortedKeys(engHists) {
		pw.Histogram("rdf_engine_exec_latency_seconds", "Execution latency (cursor open to end of stream), by engine.", engHists[eng], "engine", eng)
	}
	for _, eng := range obs.SortedKeys(st.EngineLatency) {
		pw.Gauge("rdf_engine_hold_ewma_seconds", "Worker-pool slot-hold EWMA admission control multiplies by queue depth.", st.EngineLatency[eng].HoldEWMAMs/1e3, "engine", eng)
	}

	pw.Gauge("rdf_plan_cache_entries", "Compiled plans currently cached.", float64(st.PlanCache.Size))
	pw.Gauge("rdf_plan_cache_capacity", "Plan-cache capacity.", float64(st.PlanCache.Capacity))
	pw.Counter("rdf_plan_cache_hits_total", "Plan-cache hits.", float64(st.PlanCache.Hits))
	pw.Counter("rdf_plan_cache_misses_total", "Plan-cache misses (queries bound from a template or compiled).", float64(st.PlanCache.Misses))
	pw.Counter("rdf_plan_cache_evictions_total", "Plans evicted under capacity pressure.", float64(st.PlanCache.Evictions))
	pw.Counter("rdf_plan_template_hits_total", "Plan-cache misses answered by binding constants into a cached shape template.", float64(st.PlanCache.TemplateHits))
	pw.Counter("rdf_plan_template_misses_total", "Plan-cache misses whose shape had no template (query compiled).", float64(st.PlanCache.TemplateMisses))

	ch := st.Chooser
	pw.Gauge("rdf_layout_bitset_nodes", "Trie set nodes the 1-in-256 rule laid out as bitsets.", float64(ch.LayoutBitsetNodes))
	pw.Gauge("rdf_layout_uint_nodes", "Trie set nodes laid out as sorted uint arrays.", float64(ch.LayoutUintNodes))
	pw.Counter("rdf_layout_flips_total", "Layout decisions that flipped the paper's density default.", float64(ch.LayoutFlips))

	if sh := st.Sharding; sh != nil {
		pw.Gauge("rdf_shards", "Configured shard count.", float64(sh.Shards))
		for i := 0; i < sh.Shards; i++ {
			shard := strconv.Itoa(i)
			pw.Gauge("rdf_shard_owned_triples", "Triples whose subject the shard owns.", float64(sh.OwnedTriples[i]), "shard", shard)
			pw.Gauge("rdf_shard_replicated_triples", "Triples replicated to the shard for their object.", float64(sh.ReplicatedTriples[i]), "shard", shard)
			pw.Counter("rdf_shard_rows_delivered_total", "Rows the shard contributed to merge cursors.", float64(sh.MergeRowsDelivered[i]), "shard", shard)
		}
		pw.Counter("rdf_shards_pruned_total", "(group, shard) scatter targets statistics proved empty.", float64(sh.ShardsPruned))
		pw.Counter("rdf_scatter_groups_planned_total", "Root-covered groups compiled into scatter plans.", float64(sh.GroupsPlanned))
		pw.Counter("rdf_scatter_plan_reuse_hits_total", "Opens served from a cached scatter plan.", float64(sh.PlanReuseHits))
		pw.Counter("rdf_scatter_plans_compiled_total", "Scatter-plan cache misses.", float64(sh.PlansCompiled))
		pw.Counter("rdf_scatter_plans_declined_total", "Compiled plans run on the unsharded store because scattering would cost more.", float64(sh.PlansDeclined))
		if part := s.ls.Part(); part != nil {
			pw.Histogram("rdf_merge_batch_rows", "Rows per flushed merge-transport batch.", part.BatchRowsHist())
			pw.Histogram("rdf_shards_pruned_per_query", "Scatter targets pruned per compiled plan.", part.PrunedPerQueryHist())
		}
	}

	if cl := st.Cluster; cl != nil {
		pw.Gauge("rdf_cluster_workers", "Configured cluster workers.", float64(len(cl.Workers)))
		pw.Gauge("rdf_cluster_replicas", "Candidate workers per shard.", float64(cl.Replicas))
		for _, wk := range cl.Workers {
			up := 0.0
			if wk.State == "up" || wk.State == "degraded" {
				up = 1
			}
			pw.Gauge("rdf_worker_up", "1 when the worker's breaker admits requests (up or degraded), 0 when down.", up, "worker", wk.Addr, "state", wk.State)
			pw.Counter("rdf_worker_probes_total", "Health probes sent to the worker.", float64(wk.Probes), "worker", wk.Addr)
			pw.Counter("rdf_worker_probe_failures_total", "Health probes the worker failed.", float64(wk.ProbeFailures), "worker", wk.Addr)
			pw.Counter("rdf_worker_drains_total", "Shard drain attempts launched against the worker.", float64(wk.Drains), "worker", wk.Addr)
		}
		pw.Counter("rdf_shard_attempts_total", "Shard drain attempts (first tries, retries, and hedges).", float64(cl.Attempts))
		pw.Counter("rdf_shard_retries_total", "Shard drain retries after a failed or broken attempt.", float64(cl.Retries))
		pw.Counter("rdf_shard_hedges_total", "Backup attempts launched against a straggling first byte.", float64(cl.Hedges))
		pw.Counter("rdf_shard_hedge_wins_total", "Hedged backup attempts that beat the primary.", float64(cl.HedgeWins))
		pw.Counter("rdf_shard_failovers_total", "Drains served by a non-primary candidate worker.", float64(cl.Failovers))
		pw.Counter("rdf_shard_replica_recoveries_total", "Lost shards reassembled from object-side replicas.", float64(cl.ReplicaRecoveries))
		pw.Counter("rdf_partial_results_total", "Responses flagged partial after a shard stayed unreachable.", float64(cl.PartialResults))
		pw.Histogram("rdf_shard_first_row_seconds", "Attempt time to first byte; its p99 derives the hedge delay.", s.cfg.Cluster.FirstRowHist())
		pw.Gauge("rdf_shard_hedge_delay_seconds", "Current p99-derived hedge trigger delay.", cl.HedgeDelayMs/1e3)
	}

	if d := st.Durability; d != nil {
		pw.Gauge("rdf_wal_bytes", "Current write-ahead log size.", float64(d.WALBytes))
		pw.Counter("rdf_wal_records_total", "Patch records appended by this process.", float64(d.WALRecords))
		pw.Counter("rdf_wal_syncs_total", "WAL fsyncs issued.", float64(d.WALSyncs))
		pw.Histogram("rdf_wal_fsync_latency_seconds", "WAL fsync latency.", s.cfg.Durable.Stats().WAL.FsyncLatency)
		walFailed := 0.0
		if d.WALFailed {
			walFailed = 1
		}
		pw.Gauge("rdf_wal_failed", "1 when the WAL has latched failed (updates refused, /healthz 503).", walFailed)
		pw.Gauge("rdf_segment_bytes", "Base segment file size.", float64(d.SegmentBytes))
		pw.Gauge("rdf_segments_mapped", "Segment mappings currently open.", float64(d.SegmentsMapped))
		pw.Counter("rdf_compactions_persisted_total", "Segment files written by this process.", float64(d.CompactionsPersisted))
	}

	if lv := st.Live; lv != nil {
		pw.Gauge("rdf_epoch", "Live-store epoch; increments on every base swap.", float64(lv.Epoch))
		pw.Gauge("rdf_delta_inserts", "Pending netted inserts in the delta overlay.", float64(lv.DeltaInserts))
		pw.Gauge("rdf_delta_tombstones", "Pending netted deletes in the delta overlay.", float64(lv.DeltaTombstones))
		pw.Gauge("rdf_pinned_readers", "Cursors pinned to the current epoch state.", float64(lv.PinnedReaders))
		pw.Counter("rdf_updates_total", "Applied /update patches.", float64(lv.Updates))
		pw.Counter("rdf_triples_inserted_total", "Cumulative effective triple inserts.", float64(lv.TriplesInserted))
		pw.Counter("rdf_triples_deleted_total", "Cumulative effective triple deletes.", float64(lv.TriplesDeleted))
		pw.Counter("rdf_compactions_total", "Base swaps (compactions).", float64(lv.Compactions))
	}

	pw.Gauge("rdf_traced_queries", "Traces currently retained in the /debug/queries ring.", float64(s.traces.Len()))

	if err := pw.Err(); err != nil {
		s.log.Error("metrics exposition failed", "error", err)
	}
}
