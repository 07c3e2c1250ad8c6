package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/lubm"
	"repro/internal/obs"
	"repro/internal/store"
)

// lubmStore lazily builds one scale-1 LUBM store shared by the sharded
// observability tests (the store is read-only; each test partitions its own
// server over it).
var (
	lubmOnce  sync.Once
	lubmCache *store.Store
)

func lubmScale1() *store.Store {
	lubmOnce.Do(func() {
		b := store.NewBuilder()
		lubm.GenerateTo(lubm.Config{Universities: 1, Seed: 0}, b.Add)
		lubmCache = b.Build()
	})
	return lubmCache
}

// explainBody is the ?explain=1 JSON response shape the tests care about.
type explainBody struct {
	ID    string             `json:"id"`
	Count int                `json:"count"`
	Trace *obs.TraceSnapshot `json:"trace"`
}

func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, smallStore(), Config{})
	q := `SELECT ?who WHERE { <http://ex/alice> <http://ex/knows> ?who }`
	if code, body := get(t, queryURL(ts.URL, q, nil)); code != http.StatusOK {
		t.Fatalf("query status = %d, body %s", code, body)
	}

	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if err := obs.CheckExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, body)
	}
	for _, want := range []string{
		"# TYPE rdf_build_info gauge",
		"rdf_build_info{",
		"rdf_queries_total 1",
		"rdf_query_latency_seconds_bucket{",
		"rdf_query_latency_seconds_count 1",
		"rdf_engine_exec_latency_seconds_bucket{engine=\"emptyheaded\"",
		"rdf_plan_cache_misses_total 1",
		"# TYPE rdf_plan_template_hits_total counter",
		"rdf_plan_template_hits_total 0",
		"rdf_plan_template_misses_total 1",
		"rdf_traced_queries 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}

	resp, err := http.Post(ts.URL+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatalf("POST /metrics: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics status = %d, want 405", resp.StatusCode)
	}

	// A sharded server adds the scatter-planning families; LUBM q14 (one
	// scan whose every row would cross the merge) is declined to the
	// unsharded store and counted.
	_, sts := newTestServer(t, lubmScale1(), Config{Shards: 4, MaxRows: -1})
	if code, body := get(t, queryURL(sts.URL, lubm.Query(14, 1), nil)); code != http.StatusOK {
		t.Fatalf("sharded query status = %d, body %.300s", code, body)
	}
	code, body = get(t, sts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("sharded /metrics status = %d", code)
	}
	if err := obs.CheckExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("invalid sharded exposition: %v", err)
	}
	for _, want := range []string{
		"rdf_scatter_plans_compiled_total 1",
		"# TYPE rdf_scatter_plans_declined_total counter",
		"rdf_scatter_plans_declined_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("sharded /metrics missing %q", want)
		}
	}
}

// TestExplainDeclinedScatter: a query the cost model runs unsharded says so
// on every surface — ?explain=plan carries kind "local" with both prices,
// the ?explain=1 execute span is stamped scatter_plan=local with no shard
// drains under it, and /stats counts the declined plan while no shard
// delivers a row.
func TestExplainDeclinedScatter(t *testing.T) {
	s, ts := newTestServer(t, lubmScale1(), Config{Shards: 4, MaxRows: -1})
	q := lubm.Query(14, 1)
	code, body := get(t, queryURL(ts.URL, q, map[string]string{"explain": "plan"}))
	if code != http.StatusOK {
		t.Fatalf("explain=plan status = %d, body %s", code, body)
	}
	var plan struct {
		Scatter *struct {
			Kind        string  `json:"kind"`
			LocalCost   float64 `json:"local_cost"`
			ScatterCost float64 `json:"scatter_cost"`
		} `json:"scatter"`
	}
	if err := json.Unmarshal([]byte(body), &plan); err != nil {
		t.Fatalf("bad JSON %q: %v", body, err)
	}
	if sc := plan.Scatter; sc == nil || sc.Kind != "local" || sc.LocalCost <= 0 || sc.ScatterCost < sc.LocalCost {
		t.Fatalf("q14 scatter plan = %+v, want kind local with scatter_cost >= local_cost > 0", plan.Scatter)
	}

	code, body = get(t, queryURL(ts.URL, q, map[string]string{"explain": "1"}))
	if code != http.StatusOK {
		t.Fatalf("explain=1 status = %d, body %.300s", code, body)
	}
	var out explainBody
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if out.Count == 0 || out.Trace == nil {
		t.Fatalf("explain=1: count=%d trace=%v", out.Count, out.Trace)
	}
	exec := out.Trace.Root.Find("execute")
	if exec == nil || exec.Attrs["scatter_plan"] != "local" {
		t.Fatalf("execute span not stamped scatter_plan=local: %+v", exec)
	}
	if _, ok := exec.Attrs["local_cost"]; !ok {
		t.Fatalf("execute span carries no local_cost: %v", exec.Attrs)
	}
	if exec.Find("shard_drain") != nil {
		t.Fatal("declined query opened a shard drain")
	}

	st := s.Stats()
	if st.Sharding == nil || st.Sharding.PlansDeclined != 1 {
		t.Fatalf("sharding stats = %+v, want plans_declined 1", st.Sharding)
	}
	for i, n := range st.Sharding.MergeRowsDelivered {
		if n != 0 {
			t.Fatalf("shard %d delivered %d rows for a declined query", i, n)
		}
	}
	if _, body := get(t, ts.URL+"/stats"); !strings.Contains(body, `"plans_declined":1`) {
		t.Fatalf("/stats sharding section missing plans_declined: %.600s", body)
	}
}

// TestExplainTraceSharded is the issue's acceptance query: ?explain=1 on a
// 4-shard LUBM query must return results plus a span tree that prices the
// query, carries the scatter plan with its pruned-shard set, and nests
// per-shard drain spans under the execute span.
func TestExplainTraceSharded(t *testing.T) {
	_, ts := newTestServer(t, lubmScale1(), Config{Shards: 4, MaxRows: -1})
	code, body := get(t, queryURL(ts.URL, lubm.Query(2, 1), map[string]string{"explain": "1"}))
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %s", code, body)
	}
	var out explainBody
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if out.Count == 0 {
		t.Fatal("explain=1 returned no rows; it must execute the query")
	}
	if out.Trace == nil {
		t.Fatal("no trace in explain=1 response")
	}
	if out.Trace.QueryID == "" || out.Trace.QueryID != out.ID {
		t.Fatalf("trace query_id %q does not match response id %q", out.Trace.QueryID, out.ID)
	}
	root := &out.Trace.Root
	if root.Name != "query" {
		t.Fatalf("root span = %q, want query", root.Name)
	}
	for _, name := range []string{"parse", "admission_wait", "plan", "execute", "encode"} {
		if root.Find(name) == nil {
			t.Fatalf("span %q missing from trace:\n%s", name, body)
		}
	}

	planSp := root.Find("plan")
	if cost, ok := planSp.Attrs["cost"].(float64); !ok || cost <= 0 {
		t.Fatalf("plan span carries no cost estimate: %v", planSp.Attrs)
	}

	exec := root.Find("execute")
	if exec.Rows != int64(out.Count) {
		t.Fatalf("execute span rows = %d, want %d", exec.Rows, out.Count)
	}
	if got := exec.Attrs["shards_total"]; got != float64(4) {
		t.Fatalf("shards_total = %v, want 4", got)
	}
	if kind, ok := exec.Attrs["scatter_plan"].(string); !ok || kind == "" {
		t.Fatalf("execute span has no scatter_plan attr: %v", exec.Attrs)
	}
	pruned, ok := exec.Attrs["pruned_shards"].([]any)
	if !ok {
		t.Fatalf("execute span has no pruned_shards list: %v", exec.Attrs)
	}
	if len(pruned) == 0 {
		t.Fatalf("no shards pruned on 4-shard LUBM q2; statistics pruning regressed: %v", exec.Attrs)
	}

	drain := exec.Find("shard_drain")
	if drain == nil {
		t.Fatalf("no shard_drain span nested under execute:\n%s", body)
	}
	if _, ok := drain.Attrs["shard"]; !ok {
		t.Fatalf("shard_drain span does not name its shard: %v", drain.Attrs)
	}
	if drain.StartUs < exec.StartUs {
		t.Fatalf("shard_drain starts (%v µs) before its execute parent (%v µs)", drain.StartUs, exec.StartUs)
	}

	// The trace also lands in the ring, and the sharded histograms appear in
	// the exposition now that a scatter plan has run.
	code, mbody := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if err := obs.CheckExposition(strings.NewReader(mbody)); err != nil {
		t.Fatalf("invalid sharded exposition: %v", err)
	}
	for _, want := range []string{
		"rdf_shards 4",
		"rdf_merge_batch_rows_bucket{",
		"rdf_shards_pruned_per_query_bucket{",
		"rdf_shard_rows_delivered_total{shard=\"0\"}",
	} {
		if !strings.Contains(mbody, want) {
			t.Fatalf("sharded /metrics missing %q", want)
		}
	}
}

// TestExplainPlanExecutesNothing: ?explain=plan reports the planner's
// decisions — the query's cost, the compiled scatter plan — without
// opening a cursor: no rows may leave any shard.
func TestExplainPlanExecutesNothing(t *testing.T) {
	s, ts := newTestServer(t, lubmScale1(), Config{Shards: 4, MaxRows: -1})
	code, body := get(t, queryURL(ts.URL, lubm.Query(2, 1), map[string]string{"explain": "plan"}))
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %s", code, body)
	}
	var out struct {
		QueryID string  `json:"query_id"`
		Engine  string  `json:"engine"`
		Cache   string  `json:"cache"`
		Cost    float64 `json:"cost"`
		Scatter *struct {
			Kind   string `json:"kind"`
			Shards int    `json:"shards"`
			Groups []struct {
				Root   string `json:"root"`
				Shards []int  `json:"shards"`
				Pruned []int  `json:"pruned"`
			} `json:"groups"`
		} `json:"scatter"`
		Plan string `json:"plan"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("bad JSON %q: %v", body, err)
	}
	if out.QueryID == "" || out.Cache != "miss" {
		t.Fatalf("meta = %+v", out)
	}
	if out.Cost <= 0 {
		t.Fatalf("no cost in explain=plan: %+v", out)
	}
	if out.Scatter == nil || out.Scatter.Shards != 4 || len(out.Scatter.Groups) == 0 {
		t.Fatalf("no scatter plan in explain=plan: %+v", out)
	}
	if strings.Contains(body, `"rows"`) {
		t.Fatalf("explain=plan response carries rows: %s", body)
	}

	st := s.Stats()
	if st.Sharding == nil {
		t.Fatal("no sharding stats")
	}
	for i, n := range st.Sharding.MergeRowsDelivered {
		if n != 0 {
			t.Fatalf("shard %d delivered %d rows during explain=plan; nothing may execute", i, n)
		}
	}

	// A second explain of the same query must hit the plan cache.
	code, body = get(t, queryURL(ts.URL, lubm.Query(2, 1), map[string]string{"explain": "plan"}))
	if code != http.StatusOK || !strings.Contains(body, `"cache":"hit"`) {
		t.Fatalf("second explain=plan not a cache hit: %d %s", code, body)
	}
}

func TestDebugQueriesRing(t *testing.T) {
	_, ts := newTestServer(t, smallStore(), Config{})
	first := `SELECT ?who WHERE { <http://ex/alice> <http://ex/knows> ?who }`
	second := `SELECT ?who WHERE { <http://ex/bob> <http://ex/knows> ?who }`
	for _, q := range []string{first, second} {
		if code, body := get(t, queryURL(ts.URL, q, nil)); code != http.StatusOK {
			t.Fatalf("query status = %d, body %s", code, body)
		}
	}

	code, body := get(t, ts.URL+"/debug/queries")
	if code != http.StatusOK {
		t.Fatalf("/debug/queries status = %d", code)
	}
	var out struct {
		Count  int                  `json:"count"`
		Traces []*obs.TraceSnapshot `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if out.Count != 2 || len(out.Traces) != 2 {
		t.Fatalf("ring holds %d traces, want 2: %s", out.Count, body)
	}
	if out.Traces[0].Query != second || out.Traces[1].Query != first {
		t.Fatalf("traces not newest-first: [%q, %q]", out.Traces[0].Query, out.Traces[1].Query)
	}
	if out.Traces[0].Root.Find("execute") == nil {
		t.Fatalf("ring trace has no execute span: %s", body)
	}

	code, body = get(t, ts.URL+"/debug/queries?n=1")
	if code != http.StatusOK || !strings.Contains(body, `"count":1`) {
		t.Fatalf("?n=1 = %d %s, want one trace", code, body)
	}
	if code, _ := get(t, ts.URL+"/debug/queries?n=-1"); code != http.StatusBadRequest {
		t.Fatalf("?n=-1 status = %d, want 400", code)
	}
}

// TestTraceSampling: TraceSample < 0 disables capture for plain queries,
// but ?explain=1 still traces.
func TestTraceSampling(t *testing.T) {
	_, ts := newTestServer(t, smallStore(), Config{TraceSample: -1})
	q := `SELECT ?who WHERE { <http://ex/alice> <http://ex/knows> ?who }`
	if code, body := get(t, queryURL(ts.URL, q, nil)); code != http.StatusOK {
		t.Fatalf("query status = %d, body %s", code, body)
	}
	if _, body := get(t, ts.URL+"/debug/queries"); !strings.Contains(body, `"count":0`) {
		t.Fatalf("TraceSample -1 still captured a trace: %s", body)
	}
	code, body := get(t, queryURL(ts.URL, q, map[string]string{"explain": "1"}))
	if code != http.StatusOK || !strings.Contains(body, `"trace"`) {
		t.Fatalf("explain=1 under TraceSample -1 returned no trace: %d %s", code, body)
	}
	if _, body := get(t, ts.URL+"/debug/queries"); !strings.Contains(body, `"count":1`) {
		t.Fatalf("explain=1 trace not retained in ring: %s", body)
	}
}

func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewJSONHandler(&lockedWriter{mu: &mu, w: &buf}, nil))
	_, ts := newTestServer(t, smallStore(), Config{Logger: logger, SlowQuery: time.Nanosecond})
	q := `SELECT ?who WHERE { <http://ex/alice> <http://ex/knows> ?who }`
	code, body := get(t, queryURL(ts.URL, q, nil))
	if code != http.StatusOK {
		t.Fatalf("query status = %d, body %s", code, body)
	}
	mu.Lock()
	logged := buf.String()
	mu.Unlock()
	if !strings.Contains(logged, "slow query") {
		t.Fatalf("no slow-query record at 1ns threshold: %q", logged)
	}
	var rec struct {
		Level   string  `json:"level"`
		QueryID string  `json:"query_id"`
		Engine  string  `json:"engine"`
		TotalMs float64 `json:"total_ms"`
		Rows    int64   `json:"rows"`
		Query   string  `json:"query"`
	}
	line := logged[:strings.IndexByte(logged, '\n')]
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("slow-query record is not JSON: %v in %q", err, line)
	}
	if rec.Level != "WARN" || rec.QueryID == "" || rec.Engine == "" || rec.TotalMs <= 0 || rec.Rows != 1 || rec.Query != q {
		t.Fatalf("incomplete slow-query record: %+v", rec)
	}
}

// lockedWriter serializes handler writes against the test's reads.
type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// TestStatsPercentilesFromHistogram: /stats latency percentiles are
// interpolated from the same histogram /metrics exports, so after a few
// queries both surfaces must report a consistent, populated distribution.
func TestStatsPercentilesFromHistogram(t *testing.T) {
	_, ts := newTestServer(t, smallStore(), Config{})
	q := `SELECT ?who WHERE { <http://ex/alice> <http://ex/knows> ?who }`
	for i := 0; i < 3; i++ {
		if code, body := get(t, queryURL(ts.URL, q, nil)); code != http.StatusOK {
			t.Fatalf("query status = %d, body %s", code, body)
		}
	}
	code, body := get(t, ts.URL+"/stats")
	if code != http.StatusOK {
		t.Fatalf("/stats status = %d", code)
	}
	var st Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("bad /stats JSON: %v", err)
	}
	lat := st.Latency
	if lat.Count != 3 {
		t.Fatalf("latency count = %d, want 3", lat.Count)
	}
	if lat.P50Ms <= 0 || lat.P90Ms < lat.P50Ms || lat.P99Ms < lat.P90Ms || lat.MaxMs <= 0 {
		t.Fatalf("implausible percentile ladder: %+v", lat)
	}
	el, ok := st.EngineLatency["emptyheaded"]
	if !ok || el.Count != 3 || el.P50Ms <= 0 || el.P99Ms < el.P50Ms {
		t.Fatalf("implausible engine latency: %+v", st.EngineLatency)
	}
}

func TestQueryIDHeader(t *testing.T) {
	_, ts := newTestServer(t, smallStore(), Config{})
	q := `SELECT ?who WHERE { <http://ex/alice> <http://ex/knows> ?who }`
	resp, err := http.Get(queryURL(ts.URL, q, nil))
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	qid := resp.Header.Get("X-Query-ID")
	if qid == "" {
		t.Fatal("no X-Query-ID response header")
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if out.ID != qid {
		t.Fatalf("body id %q != X-Query-ID header %q", out.ID, qid)
	}
}

func TestHealthzBuildInfo(t *testing.T) {
	_, ts := newTestServer(t, smallStore(), Config{})
	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status = %d", code)
	}
	var out struct {
		Build *obs.BuildInfo `json:"build"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("bad JSON %q: %v", body, err)
	}
	if out.Build == nil || out.Build.GoVersion == "" {
		t.Fatalf("/healthz has no build info: %s", body)
	}
}

// TestExplainPlanShowsGroup checks that ?explain=plan reports the compiled
// plan's automorphism group: for the triangle, its three rotations and the
// bound the join enumerates under, over the normalized variable names.
func TestExplainPlanShowsGroup(t *testing.T) {
	_, ts := newTestServer(t, denseStore(12), Config{})
	tri := `SELECT ?x ?y ?z WHERE { ?x <http://ex/p> ?y . ?y <http://ex/p> ?z . ?z <http://ex/p> ?x }`
	code, body := get(t, queryURL(ts.URL, tri, map[string]string{"explain": "plan"}))
	if code != http.StatusOK || !strings.Contains(body, `"sym":"sym=3 (v0 v1 v2) bound v1,v2≥v0"`) {
		t.Fatalf("explain=plan shows no group: %d %s", code, body)
	}
}
