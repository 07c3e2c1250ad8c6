package server

// obs.go is the serving layer's observability surface: per-request query
// IDs (echoed in the X-Query-ID response header), the span-tree trace
// captured around each query's pipeline stages, the ring of recent traces
// served at /debug/queries, the slow-query structured log, and the
// plan-only EXPLAIN response. The exposition-format /metrics endpoint
// lives in prom.go.

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/shard"
)

// traceRingSize is how many recent query traces /debug/queries retains.
const traceRingSize = 128

// maxTracedQueryLen bounds the raw query text stored on a trace; the ring
// holds 128 traces and a pathological client must not turn it into a
// megabyte archive.
const maxTracedQueryLen = 2048

// traceQuery returns the query text bounded for trace storage.
func traceQuery(text string) string {
	if len(text) > maxTracedQueryLen {
		return text[:maxTracedQueryLen] + "…"
	}
	return text
}

// sampled reports whether the next query should be traced: every query at
// TraceSample 1 (the default — span capture is nil-checks and a handful of
// small allocations per request), every Nth at N, never at < 0. ?explain=1
// requests are always traced regardless.
func (s *Server) sampled() bool {
	n := s.cfg.TraceSample
	if n < 0 {
		return false
	}
	if n <= 1 {
		return true
	}
	return s.traceSeq.Add(1)%uint64(n) == 0
}

// slowLog emits one structured slow-query record from a finished trace.
func (s *Server) slowLog(snap *obs.TraceSnapshot, total time.Duration, rows int64, isErr bool) {
	if snap == nil {
		return
	}
	s.log.LogAttrs(context.Background(), slog.LevelWarn, "slow query",
		slog.String("query_id", snap.QueryID),
		slog.String("engine", snap.Engine),
		slog.Float64("total_ms", ms(total)),
		slog.Int64("rows", rows),
		slog.Bool("error", isErr),
		slog.String("query", snap.Query),
	)
}

// handleDebugQueries serves the recent-trace ring, newest first:
// {"count":N,"traces":[TraceSnapshot,...]}. ?n= bounds how many come back.
func (s *Server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	traces := s.traces.Snapshot()
	if nv := r.FormValue("n"); nv != "" {
		n, err := strconv.Atoi(nv)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "bad n %q (want a non-negative integer)", nv)
			return
		}
		if n < len(traces) {
			traces = traces[:n]
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"count":  len(traces),
		"traces": traces,
	})
}

// explainResponse is the ?explain=plan payload: everything the planner
// decided, nothing executed.
type explainResponse struct {
	QueryID string `json:"query_id"`
	Engine  string `json:"engine"`
	Cache   string `json:"cache"`
	// Cost is the query's price (plan.Profile.Cost), which the plan cache
	// evicts by and a sharded server weighs a scatter against.
	Cost float64 `json:"cost"`
	// Scatter is the shard engine's compiled plan summary; nil when the
	// server runs unsharded.
	Scatter *shard.ExplainPlan `json:"scatter,omitempty"`
	// Plan reports whether the engine separates compilation from execution
	// and cached a compiled plan ("compiled"), or plans internally per
	// execution ("per-execution").
	Plan string `json:"plan"`
	// Template reports, on a text-cache miss of a compiling engine, whether
	// the plan was bound from the shape's template ("hit") or compiled
	// ("miss"); empty otherwise.
	Template string `json:"template,omitempty"`
	// Sym is the compiled plan's automorphism group as plan.Plan.SymString
	// renders it, when the plan keeps one.
	Sym string `json:"sym,omitempty"`
}

// explainPlan answers ?explain=plan: resolve the plan-cache entry
// (compiling on a miss — planning is the thing being explained) and report
// the decisions without acquiring pool slots or opening any cursor.
func (s *Server) explainPlan(w http.ResponseWriter, qid, engineName string, le *live.Engine, q *query.BGP) error {
	pq, hit, template, err := s.prepare(engineName, le, q)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "planning: %v", err)
		return err
	}
	resp := explainResponse{
		QueryID:  qid,
		Engine:   engineName,
		Cache:    "miss",
		Cost:     pq.cost,
		Plan:     "per-execution",
		Template: template,
	}
	if hit {
		resp.Cache = "hit"
	}
	if pq.plan != nil {
		resp.Plan = "compiled"
		if pq.plan.Sym != nil {
			resp.Sym = pq.plan.SymString()
		}
	}
	if inner, ierr := le.Inner(); ierr == nil {
		if se, ok := inner.(*shard.Engine); ok {
			if ep, eerr := se.Explain(pq.bgp); eerr == nil {
				resp.Scatter = ep
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
	return nil
}

// annotatePlanSpan records the planner's decisions on the plan span.
func annotatePlanSpan(sp *obs.Span, pq *preparedQuery, hit bool, template string) {
	if sp == nil {
		return
	}
	if hit {
		sp.SetAttr("cache", "hit")
	} else {
		sp.SetAttr("cache", "miss")
	}
	if template != "" {
		sp.SetAttr("template", template)
	}
	sp.SetAttr("cost", pq.cost)
}
