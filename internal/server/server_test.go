package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/lubm"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/store"
)

// smallStore builds a tiny dataset:
//
//	alice knows bob, bob knows carol, alice age "30"
func smallStore() *store.Store {
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }
	b := store.NewBuilder()
	b.Add(rdf.Triple{S: iri("alice"), P: iri("knows"), O: iri("bob")})
	b.Add(rdf.Triple{S: iri("bob"), P: iri("knows"), O: iri("carol")})
	b.Add(rdf.Triple{S: iri("alice"), P: iri("age"), O: rdf.NewLiteral("30")})
	return b.Build()
}

// denseStore builds a complete digraph over n vertices on one predicate, so
// the triangle query emits ~n^3 rows — slow enough that a short request
// timeout always fires first.
func denseStore(n int) *store.Store {
	b := store.NewBuilder()
	p := rdf.NewIRI("http://ex/p")
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Add(rdf.Triple{
				S: rdf.NewIRI(fmt.Sprintf("http://ex/n%d", i)),
				P: p,
				O: rdf.NewIRI(fmt.Sprintf("http://ex/n%d", j)),
			})
		}
	}
	return b.Build()
}

const triangleQuery = `SELECT ?x ?y ?z WHERE { ?x <http://ex/p> ?y . ?y <http://ex/p> ?z . ?x <http://ex/p> ?z }`

func newTestServer(t *testing.T, st *store.Store, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Store = st
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, rawURL string) (int, string) {
	t.Helper()
	resp, err := http.Get(rawURL)
	if err != nil {
		t.Fatalf("GET %s: %v", rawURL, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, string(body)
}

func queryURL(base, q string, extra map[string]string) string {
	params := url.Values{"query": {q}}
	for k, v := range extra {
		params.Set(k, v)
	}
	return base + "/query?" + params.Encode()
}

func TestQuerySuccessJSON(t *testing.T) {
	_, ts := newTestServer(t, smallStore(), Config{})
	q := `SELECT ?who WHERE { <http://ex/alice> <http://ex/knows> ?who }`
	code, body := get(t, queryURL(ts.URL, q, nil))
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %s", code, body)
	}
	var out struct {
		Vars   []string   `json:"vars"`
		Engine string     `json:"engine"`
		Cache  string     `json:"cache"`
		Count  int        `json:"count"`
		Rows   [][]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("bad JSON %q: %v", body, err)
	}
	if out.Count != 1 || len(out.Rows) != 1 || out.Rows[0][0] != "<http://ex/bob>" {
		t.Fatalf("unexpected result: %+v", out)
	}
	if out.Vars[0] != "who" {
		t.Fatalf("vars = %v, want original name 'who'", out.Vars)
	}
	if out.Engine != "emptyheaded" || out.Cache != "miss" {
		t.Fatalf("meta = %+v", out)
	}
}

func TestQuerySuccessTSV(t *testing.T) {
	_, ts := newTestServer(t, smallStore(), Config{})
	q := `SELECT ?s ?o WHERE { ?s <http://ex/knows> ?o }`
	code, body := get(t, queryURL(ts.URL, q, map[string]string{"format": "tsv"}))
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %s", code, body)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if lines[0] != "?s\t?o" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 3 {
		t.Fatalf("want 2 data rows, got %d: %q", len(lines)-1, body)
	}
}

func TestQueryPostBody(t *testing.T) {
	_, ts := newTestServer(t, smallStore(), Config{})
	q := `SELECT ?who WHERE { <http://ex/alice> <http://ex/knows> ?who }`
	// Standard SPARQL clients send a charset parameter; both forms must work.
	for _, ct := range []string{"application/sparql-query", "application/sparql-query; charset=utf-8"} {
		resp, err := http.Post(ts.URL+"/query", ct, strings.NewReader(q))
		if err != nil {
			t.Fatalf("POST (%s): %v", ct, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST (%s): status = %d, body %s", ct, resp.StatusCode, body)
		}
	}
}

func TestAcceptHeaderTSV(t *testing.T) {
	_, ts := newTestServer(t, smallStore(), Config{})
	q := `SELECT ?who WHERE { <http://ex/alice> <http://ex/knows> ?who }`
	req, _ := http.NewRequest(http.MethodGet, queryURL(ts.URL, q, nil), nil)
	req.Header.Set("Accept", "text/tab-separated-values;q=0.9, */*;q=0.1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/tab-separated-values") {
		t.Fatalf("Content-Type = %q, want TSV for Accept with params", ct)
	}
}

func TestParseErrorIs400(t *testing.T) {
	_, ts := newTestServer(t, smallStore(), Config{})
	code, body := get(t, queryURL(ts.URL, `SELECT ?x WHERE { broken`, nil))
	if code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", code, body)
	}
	if !strings.Contains(body, "error") {
		t.Fatalf("body = %q, want JSON error", body)
	}
}

func TestMissingQueryIs400(t *testing.T) {
	_, ts := newTestServer(t, smallStore(), Config{})
	code, _ := get(t, ts.URL+"/query")
	if code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", code)
	}
}

func TestUnknownEngineIs400(t *testing.T) {
	_, ts := newTestServer(t, smallStore(), Config{})
	q := `SELECT ?who WHERE { <http://ex/alice> <http://ex/knows> ?who }`
	code, body := get(t, queryURL(ts.URL, q, map[string]string{"engine": "postgres"}))
	if code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", code, body)
	}
	if !strings.Contains(body, "unknown engine") {
		t.Fatalf("body = %q, want unknown engine error", body)
	}
}

func TestBadTimeoutIs400(t *testing.T) {
	_, ts := newTestServer(t, smallStore(), Config{})
	q := `SELECT ?who WHERE { <http://ex/alice> <http://ex/knows> ?who }`
	code, _ := get(t, queryURL(ts.URL, q, map[string]string{"timeout": "yesterday"}))
	if code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", code)
	}
}

// TestSlowQueryTimesOutMidStream drives the acceptance criterion "a slow
// query is cancelled by the request timeout" under streaming semantics: the
// triangle query over a dense graph would emit ~40M rows, so its first rows
// stream out (status 200) long before the 25ms deadline — which then aborts
// the join mid-recursion. The response must end promptly with an in-band
// error (trailing "error" field) instead of running for seconds, and the
// timeout must be counted.
func TestSlowQueryTimesOutMidStream(t *testing.T) {
	srv, ts := newTestServer(t, denseStore(350), Config{})
	start := time.Now()
	code, body := get(t, queryURL(ts.URL, triangleQuery, map[string]string{"timeout": "25ms"}))
	elapsed := time.Since(start)
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (rows stream before the deadline); body %.200s", code, body)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("response took %v — cancellation did not interrupt the join", elapsed)
	}
	if !strings.Contains(body, `"error":`) || !strings.Contains(body, "deadline") {
		t.Fatalf("streamed body does not carry the mid-stream deadline error (tail: %s)", body[len(body)-min(len(body), 300):])
	}
	// The body must still be one well-formed JSON object (rows then
	// trailing count/took_ms/error fields).
	var out struct {
		Count int    `json:"count"`
		Error string `json:"error"`
		Rows  [][]string
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("mid-stream-error body is not valid JSON: %v", err)
	}
	if out.Error == "" {
		t.Fatalf("no error field in %0.100s", body)
	}
	if st := srv.Stats(); st.Timeouts != 1 {
		t.Fatalf("Timeouts = %d, want 1", st.Timeouts)
	}
}

// TestTimeoutBeforeFirstRowIs504: when the deadline has already passed
// before any row is produced, the failure still maps to a proper HTTP
// status (the handler pulls the first row before committing headers).
func TestTimeoutBeforeFirstRowIs504(t *testing.T) {
	srv, ts := newTestServer(t, denseStore(30), Config{})
	code, body := get(t, queryURL(ts.URL, triangleQuery, map[string]string{"timeout": "1ns"}))
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %.200s", code, body)
	}
	if st := srv.Stats(); st.Timeouts != 1 {
		t.Fatalf("Timeouts = %d, want 1", st.Timeouts)
	}
}

// TestPlanCacheHit drives the acceptance criterion "a repeated query
// demonstrably hits the plan cache (asserted via /stats)" — including that
// an α-renamed variant of the query shares the same cache entry.
func TestPlanCacheHit(t *testing.T) {
	_, ts := newTestServer(t, smallStore(), Config{})
	q1 := `SELECT ?who WHERE { <http://ex/alice> <http://ex/knows> ?who }`
	q2 := `SELECT ?w WHERE { <http://ex/alice> <http://ex/knows> ?w }` // α-renamed
	for _, q := range []string{q1, q1, q2} {
		if code, body := get(t, queryURL(ts.URL, q, nil)); code != http.StatusOK {
			t.Fatalf("status = %d, body %s", code, body)
		}
	}
	code, body := get(t, ts.URL+"/stats")
	if code != http.StatusOK {
		t.Fatalf("/stats status = %d", code)
	}
	var st Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("bad /stats JSON %q: %v", body, err)
	}
	if st.PlanCache.Misses != 1 || st.PlanCache.Hits != 2 {
		t.Fatalf("plan cache hits=%d misses=%d, want 2/1; stats %s", st.PlanCache.Hits, st.PlanCache.Misses, body)
	}
	if st.Queries != 3 {
		t.Fatalf("queries = %d, want 3", st.Queries)
	}
	// The second request must be marked as served from the cache.
	_, body = get(t, queryURL(ts.URL, q1, nil))
	if !strings.Contains(body, `"cache":"hit"`) {
		t.Fatalf("repeat response not marked as cache hit: %s", body)
	}
}

func TestEnginesShareCacheSeparately(t *testing.T) {
	_, ts := newTestServer(t, smallStore(), Config{})
	q := `SELECT ?who WHERE { <http://ex/alice> <http://ex/knows> ?who }`
	for _, eng := range []string{"emptyheaded", "logicblox", "naive"} {
		code, body := get(t, queryURL(ts.URL, q, map[string]string{"engine": eng}))
		if code != http.StatusOK {
			t.Fatalf("engine %s: status %d, body %s", eng, code, body)
		}
		if !strings.Contains(body, "<http://ex/bob>") {
			t.Fatalf("engine %s: wrong result %s", eng, body)
		}
	}
	_, body := get(t, ts.URL+"/stats")
	var st Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	// Same query text, three engines: three distinct text entries, plus a
	// shape template for each engine that compiles plans (naive does not).
	if st.PlanCache.Misses != 3 || st.PlanCache.Size != 5 || st.PlanCache.TemplateMisses != 2 {
		t.Fatalf("plan cache misses=%d size=%d template misses=%d, want 3/5/2", st.PlanCache.Misses, st.PlanCache.Size, st.PlanCache.TemplateMisses)
	}
}

// TestMaxRowsTruncation checks the serving-layer row cap: a query whose
// full result would be 27k rows comes back with exactly MaxRows rows and a
// truncation marker, for both the in-enumeration path (emptyheaded) and
// the after-the-fact path (monetdb).
func TestMaxRowsTruncation(t *testing.T) {
	_, ts := newTestServer(t, denseStore(30), Config{MaxRows: 500})
	for _, eng := range []string{"emptyheaded", "monetdb"} {
		code, body := get(t, queryURL(ts.URL, triangleQuery, map[string]string{"engine": eng}))
		if code != http.StatusOK {
			t.Fatalf("%s: status = %d, body %.200s", eng, code, body)
		}
		var out struct {
			Truncated bool `json:"truncated"`
			Count     int  `json:"count"`
		}
		if err := json.Unmarshal([]byte(body), &out); err != nil {
			t.Fatalf("%s: bad JSON: %v", eng, err)
		}
		if out.Count != 500 || !out.Truncated {
			t.Fatalf("%s: count=%d truncated=%v, want 500/true", eng, out.Count, out.Truncated)
		}
	}
	// Under the cap (30 rows): no truncation marker.
	q := `SELECT ?x WHERE { <http://ex/n0> <http://ex/p> ?x }`
	_, body := get(t, queryURL(ts.URL, q, nil))
	if strings.Contains(body, `"truncated"`) {
		t.Fatalf("small result carries truncation marker: %.200s", body)
	}
}

func TestUnknownEngineDoesNotGrowSlots(t *testing.T) {
	s, ts := newTestServer(t, smallStore(), Config{})
	for i := 0; i < 5; i++ {
		get(t, queryURL(ts.URL, `SELECT ?x WHERE { ?x <http://ex/p> ?x }`, map[string]string{"engine": fmt.Sprintf("bogus%d", i)}))
	}
	s.mu.Lock()
	n := len(s.engines)
	s.mu.Unlock()
	if n != 1 { // the default engine only
		t.Fatalf("engine slots = %d, want 1 (garbage names must not allocate)", n)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, smallStore(), Config{})
	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("healthz = %d %q", code, body)
	}
	if !strings.Contains(body, `"triples":3`) {
		t.Fatalf("healthz body = %q, want triples count", body)
	}
}

// TestConcurrentClients hammers one server from many goroutines across
// engines and formats. Run under -race (CI does) this also proves the
// shared store's lazy index construction and the plan cache are safe for
// concurrent use.
func TestConcurrentClients(t *testing.T) {
	st := store.NewBuilder()
	lubm.GenerateTo(lubm.Config{Universities: 1, Seed: 0}, st.Add)
	srv, ts := newTestServer(t, st.Build(), Config{MaxConcurrent: 4, PlanCacheSize: 8})

	queries := []string{
		lubm.Query(1, 1),
		lubm.Query(2, 1),
		lubm.Query(8, 1),
		lubm.Query(14, 1),
	}
	engines := []string{"", "emptyheaded", "logicblox", "rdf3x"}
	const goroutines = 16
	const perGoroutine = 10

	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perGoroutine)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				q := queries[(g+i)%len(queries)]
				extra := map[string]string{}
				if e := engines[(g+i)%len(engines)]; e != "" {
					extra["engine"] = e
				}
				if i%2 == 1 {
					extra["format"] = "tsv"
				}
				resp, err := http.Get(queryURL(ts.URL, q, extra))
				if err != nil {
					errs <- err
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("goroutine %d req %d: HTTP %d", g, i, resp.StatusCode)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st2 := srv.Stats()
	if st2.Queries != goroutines*perGoroutine {
		t.Fatalf("queries = %d, want %d", st2.Queries, goroutines*perGoroutine)
	}
	if st2.Errors != 0 {
		t.Fatalf("errors = %d, want 0", st2.Errors)
	}
	if st2.PlanCache.Hits == 0 {
		t.Fatal("no plan cache hits under repeated concurrent load")
	}
	if st2.Latency.Count != goroutines*perGoroutine || st2.Latency.P99Ms < st2.Latency.P50Ms {
		t.Fatalf("implausible latency stats: %+v", st2.Latency)
	}
}

// TestWorkersParam: ?workers=N runs the parallel enumeration path and must
// return the same result as the sequential one (and garbage values are
// rejected).
func TestWorkersParam(t *testing.T) {
	_, ts := newTestServer(t, denseStore(12), Config{MaxConcurrent: 8})
	var bodies []string
	for _, extra := range []map[string]string{nil, {"workers": "4"}} {
		code, body := get(t, queryURL(ts.URL, triangleQuery, extra))
		if code != http.StatusOK {
			t.Fatalf("workers=%v: status %d, body %.200s", extra, code, body)
		}
		bodies = append(bodies, body)
	}
	var seq, par struct {
		Count int        `json:"count"`
		Rows  [][]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(bodies[0]), &seq); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(bodies[1]), &par); err != nil {
		t.Fatal(err)
	}
	if seq.Count != 12*12*12 || par.Count != seq.Count {
		t.Fatalf("counts: sequential %d, workers=4 %d (want %d)", seq.Count, par.Count, 12*12*12)
	}
	if code, _ := get(t, queryURL(ts.URL, triangleQuery, map[string]string{"workers": "banana"})); code != http.StatusBadRequest {
		t.Fatalf("garbage workers: status %d, want 400", code)
	}
	// A request above the ceiling is clamped, not rejected.
	if code, _ := get(t, queryURL(ts.URL, triangleQuery, map[string]string{"workers": "10000"})); code != http.StatusOK {
		t.Fatalf("huge workers: status %d, want 200 (clamped)", code)
	}
}

// TestWorkersOnAuto: ?workers=N on the auto engine, the one every
// benchmark workload serves, holds N pool slots and returns the sequential
// rows, unsharded and behind the scatter-gather wrapper (which forwards
// Workers to every shard's engine).
func TestWorkersOnAuto(t *testing.T) {
	for _, shards := range []int{0, 3} {
		_, ts := newTestServer(t, denseStore(12), Config{MaxConcurrent: 8, MaxQueryWorkers: 8, Shards: shards})
		var out [2]struct {
			Rows  [][]string         `json:"rows"`
			Trace *obs.TraceSnapshot `json:"trace"`
		}
		for i, extra := range []map[string]string{
			{"engine": "auto"},
			{"engine": "auto", "workers": "2", "explain": "1"},
		} {
			code, body := get(t, queryURL(ts.URL, triangleQuery, extra))
			if code != http.StatusOK {
				t.Fatalf("shards=%d %v: status %d, body %.200s", shards, extra, code, body)
			}
			if err := json.Unmarshal([]byte(body), &out[i]); err != nil {
				t.Fatal(err)
			}
		}
		seq, par := out[0], out[1]
		if par.Trace == nil {
			t.Fatalf("shards=%d: explain=1 returned no trace", shards)
		}
		if sp := par.Trace.Root.Find("admission_wait"); sp == nil || sp.Attrs["slots"] != float64(2) {
			t.Fatalf("shards=%d: workers=2 admission_wait span = %+v, want slots 2", shards, sp)
		}
		for _, rows := range [][][]string{seq.Rows, par.Rows} {
			slices.SortFunc(rows, slices.Compare)
		}
		if len(seq.Rows) != 12*12*12 || !slices.EqualFunc(seq.Rows, par.Rows, slices.Equal) {
			t.Fatalf("shards=%d: workers=2 gave %d rows, sequential %d (want %d, equal)", shards, len(par.Rows), len(seq.Rows), 12*12*12)
		}
	}
}

// TestOffsetParam: ?offset=N skips rows; offset past the end yields an
// empty result.
func TestOffsetParam(t *testing.T) {
	_, ts := newTestServer(t, denseStore(6), Config{})
	q := `SELECT ?x ?y WHERE { ?x <http://ex/p> ?y }` // 36 rows
	type resp struct {
		Count int        `json:"count"`
		Rows  [][]string `json:"rows"`
	}
	var full, skipped, beyond resp
	for _, tc := range []struct {
		extra map[string]string
		out   *resp
	}{
		{nil, &full},
		{map[string]string{"offset": "30"}, &skipped},
		{map[string]string{"offset": "1000"}, &beyond},
	} {
		code, body := get(t, queryURL(ts.URL, q, tc.extra))
		if code != http.StatusOK {
			t.Fatalf("offset %v: status %d", tc.extra, code)
		}
		if err := json.Unmarshal([]byte(body), tc.out); err != nil {
			t.Fatal(err)
		}
	}
	if full.Count != 36 || skipped.Count != 6 || beyond.Count != 0 {
		t.Fatalf("counts = %d/%d/%d, want 36/6/0", full.Count, skipped.Count, beyond.Count)
	}
	if code, _ := get(t, queryURL(ts.URL, q, map[string]string{"offset": "-3"})); code != http.StatusBadRequest {
		t.Fatalf("negative offset accepted")
	}
}

// TestAdmissionControl429: with the single worker slot held by a slow query
// and a primed hold-time estimate, a short-deadline request must be bounced
// immediately with 429 + Retry-After instead of queueing to a certain 504.
func TestAdmissionControl429(t *testing.T) {
	srv, ts := newTestServer(t, denseStore(350), Config{MaxConcurrent: 1, MaxRows: -1})
	// Teach the EWMA that slots are held for a long time.
	srv.stats.endHold("emptyheaded", 0, 5*time.Second) // seed the EWMA

	// Occupy the only slot with a long triangle enumeration.
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(queryURL(ts.URL, triangleQuery, map[string]string{"timeout": "30s"}))
		if err == nil {
			<-release
			resp.Body.Close()
		}
	}()
	// Wait until the slot is actually held.
	for i := 0; ; i++ {
		if inUse, _, _ := srv.pool.stats(); inUse == 1 {
			break
		}
		if i > 500 {
			t.Fatal("slow query never acquired the slot")
		}
		time.Sleep(2 * time.Millisecond)
	}

	resp, err := http.Get(queryURL(ts.URL, triangleQuery, map[string]string{"timeout": "50ms"}))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body %.200s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want a positive number of seconds", ra)
	}
	if st := srv.Stats(); st.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", st.Rejected)
	}
	close(release)
	<-done
}

// TestStatsNewFields: queue depth, in-flight slots, and per-engine latency
// percentiles appear in /stats after traffic.
func TestStatsNewFields(t *testing.T) {
	_, ts := newTestServer(t, smallStore(), Config{})
	q := `SELECT ?who WHERE { <http://ex/alice> <http://ex/knows> ?who }`
	for _, eng := range []string{"emptyheaded", "naive"} {
		if code, body := get(t, queryURL(ts.URL, q, map[string]string{"engine": eng})); code != http.StatusOK {
			t.Fatalf("engine %s: status %d, body %s", eng, code, body)
		}
	}
	code, body := get(t, ts.URL+"/stats")
	if code != http.StatusOK {
		t.Fatalf("/stats status %d", code)
	}
	var st Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("bad /stats JSON: %v", err)
	}
	if st.QueueDepth != 0 || st.InFlightSlots != 0 {
		t.Fatalf("idle server reports queue_depth=%d in_flight_slots=%d", st.QueueDepth, st.InFlightSlots)
	}
	for _, eng := range []string{"emptyheaded", "naive"} {
		el, ok := st.EngineLatency[eng]
		if !ok || el.Count != 1 {
			t.Fatalf("engine_latency[%s] = %+v (body %s)", eng, el, body)
		}
		if el.P50Ms < 0 || el.P99Ms < el.P50Ms {
			t.Fatalf("implausible per-engine latency: %+v", el)
		}
	}
	if !strings.Contains(body, `"rejected"`) {
		t.Fatalf("/stats missing rejected counter: %s", body)
	}
}

// TestStreamingTruncationExactAllEngines: every engine reports truncation
// through the cursor probe — exactly MaxRows rows with "truncated":true
// when more exist, and no marker when the result fits exactly.
func TestStreamingTruncationExact(t *testing.T) {
	// 6^3 = 216 triangle rows. Exact fit: no marker.
	_, tsFit := newTestServer(t, denseStore(6), Config{MaxRows: 216})
	for _, eng := range []string{"emptyheaded", "monetdb", "naive"} {
		_, body := get(t, queryURL(tsFit.URL, triangleQuery, map[string]string{"engine": eng}))
		if strings.Contains(body, `"truncated"`) {
			t.Fatalf("%s: exact-fit result carries truncation marker: %.200s", eng, body)
		}
	}
	// One row below the result size: exactly MaxRows rows, marked truncated.
	_, tsCap := newTestServer(t, denseStore(6), Config{MaxRows: 215})
	for _, eng := range []string{"emptyheaded", "monetdb", "naive"} {
		_, body := get(t, queryURL(tsCap.URL, triangleQuery, map[string]string{"engine": eng}))
		var out struct {
			Count     int  `json:"count"`
			Truncated bool `json:"truncated"`
		}
		if err := json.Unmarshal([]byte(body), &out); err != nil {
			t.Fatalf("%s: bad JSON: %v", eng, err)
		}
		if out.Count != 215 || !out.Truncated {
			t.Fatalf("%s: count=%d truncated=%v, want 215/true", eng, out.Count, out.Truncated)
		}
	}
}
