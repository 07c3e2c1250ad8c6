package server

// Tests for the serving-layer features of the sharded scatter-gather PR:
// Config.Shards (per-request execution over shard.Engine + /stats layout
// and drain-balance reporting), the per-engine admission EWMA split, and
// SPARQL LIMIT/OFFSET mapped end-to-end onto the cursor contract.

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"
)

// collectTSV fetches the query as TSV and returns its data rows, sorted.
func collectTSV(t *testing.T, base, q, eng string) []string {
	t.Helper()
	code, body := get(t, queryURL(base, q, map[string]string{"engine": eng, "format": "tsv"}))
	if code != http.StatusOK {
		t.Fatalf("engine %s: status %d, body %.300s", eng, code, body)
	}
	lines := strings.Split(strings.TrimRight(body, "\n"), "\n")
	rows := lines[1:] // drop the header
	sort.Strings(rows)
	return rows
}

// scatteredPath is a 4-hop path over denseStore: its 8^5 rows make the
// whole join dearer than shipping one 2-hop group against a memoized other,
// so the cost model keeps it scattering (a merge-layer join) where the
// smaller queries run unsharded.
const scatteredPath = `SELECT ?a ?e WHERE { ?a <http://ex/p> ?b . ?b <http://ex/p> ?c . ?c <http://ex/p> ?d . ?d <http://ex/p> ?e }`

// TestShardedServerMatchesUnsharded: the same queries against a sharded and
// an unsharded server over the same store return identical row sets, for a
// shard-local star, a replication-dependent path, the triangle, and a path
// the cost model scatters as a merge-layer join.
func TestShardedServerMatchesUnsharded(t *testing.T) {
	st := denseStore(8)
	_, plain := newTestServer(t, st, Config{MaxRows: -1})
	srv, sharded := newTestServer(t, st, Config{MaxRows: -1, Shards: 3})
	queries := []string{
		`SELECT ?a ?b WHERE { ?x <http://ex/p> ?a . ?x <http://ex/p> ?b }`,
		`SELECT ?x ?z WHERE { ?x <http://ex/p> ?y . ?y <http://ex/p> ?z }`,
		triangleQuery,
		scatteredPath,
	}
	if code, body := get(t, queryURL(sharded.URL, scatteredPath, map[string]string{"explain": "plan"})); code != http.StatusOK || !strings.Contains(body, `"kind":"join"`) {
		t.Fatalf("4-hop path not planned as a scattered join: %d %.400s", code, body)
	}
	// ?workers= is honoured (and accounted) for sharded emptyheaded too:
	// same rows, parallel per-shard enumeration.
	wantPar := collectTSV(t, plain.URL, triangleQuery, "emptyheaded")
	pcode, pbody := get(t, queryURL(sharded.URL, triangleQuery,
		map[string]string{"engine": "emptyheaded", "format": "tsv", "workers": "2"}))
	if pcode != http.StatusOK {
		t.Fatalf("workers=2 sharded: status %d, body %.300s", pcode, pbody)
	}
	gotPar := strings.Split(strings.TrimRight(pbody, "\n"), "\n")[1:]
	sort.Strings(gotPar)
	if len(gotPar) != len(wantPar) {
		t.Fatalf("workers=2 sharded: %d rows, want %d", len(gotPar), len(wantPar))
	}
	for i := range wantPar {
		if gotPar[i] != wantPar[i] {
			t.Fatalf("workers=2 sharded: row %d differs: %q vs %q", i, gotPar[i], wantPar[i])
		}
	}

	for _, q := range queries {
		for _, eng := range []string{"emptyheaded", "naive", "monetdb"} {
			want := collectTSV(t, plain.URL, q, eng)
			got := collectTSV(t, sharded.URL, q, eng)
			if len(got) != len(want) {
				t.Fatalf("%s %q: %d rows sharded, %d unsharded", eng, q, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s %q: row %d differs: %q vs %q", eng, q, i, got[i], want[i])
				}
			}
		}
	}

	// /stats reports the partition layout and a non-trivial drain balance.
	stats := srv.Stats()
	if stats.Sharding == nil {
		t.Fatal("sharded server reports no Sharding stats")
	}
	if stats.Sharding.Shards != 3 {
		t.Fatalf("Sharding.Shards = %d, want 3", stats.Sharding.Shards)
	}
	ownedSum := 0
	for _, n := range stats.Sharding.OwnedTriples {
		ownedSum += n
	}
	if ownedSum != st.NumTriples() {
		t.Fatalf("owned triples sum %d != %d", ownedSum, st.NumTriples())
	}
	var deliveredSum int64
	for _, n := range stats.Sharding.MergeRowsDelivered {
		deliveredSum += n
	}
	if deliveredSum == 0 {
		t.Fatal("no merge rows delivered recorded after sharded traffic")
	}
	// Scatter-planning counters: the traffic above compiled root-covered
	// groups, and the repeated queries (the triangle ran more than once per
	// engine) were answered from cached scatter plans — the plan-cache
	// interning chain (normalize → interned BGP pointer → shard plan cache)
	// is load-bearing for the sharded hot path, so its observability is too.
	if stats.Sharding.PlansCompiled == 0 || stats.Sharding.GroupsPlanned == 0 {
		t.Fatalf("no scatter planning recorded: %+v", stats.Sharding)
	}
	reuseBefore := stats.Sharding.PlanReuseHits
	collectTSV(t, sharded.URL, triangleQuery, "emptyheaded")
	if after := srv.Stats().Sharding.PlanReuseHits; after <= reuseBefore {
		t.Fatalf("plan_reuse_hits = %d after repeating a cached query, want > %d", after, reuseBefore)
	}
	// The JSON payload carries the section (and the unsharded server omits it).
	code, body := get(t, sharded.URL+"/stats")
	if code != http.StatusOK || !strings.Contains(body, `"sharding"`) {
		t.Fatalf("/stats: code=%d, sharding section missing: %.300s", code, body)
	}
	if !strings.Contains(body, `"plan_reuse_hits"`) || !strings.Contains(body, `"shards_pruned"`) {
		t.Fatalf("/stats sharding section missing scatter-planning counters: %.400s", body)
	}
	if _, body := get(t, plain.URL+"/stats"); strings.Contains(body, `"sharding"`) {
		t.Fatal("unsharded /stats carries a sharding section")
	}
}

// TestPerEngineAdmissionIndependence: hold-time EWMAs are kept per engine
// and the queue-wait estimate is driven by the engines occupying the pool.
// A history of slow pairwise traffic must not inflate estimates once fast
// queries hold the slots (no 429 for requests queued behind fast work) —
// and a pool genuinely held by a slow engine must reject honestly, even
// for requests naming a fast engine.
func TestPerEngineAdmissionIndependence(t *testing.T) {
	srv, ts := newTestServer(t, smallStore(), Config{MaxConcurrent: 1})
	// Two engines with very different observed hold times.
	srv.stats.endHold("monetdb", 0, 10*time.Second)
	srv.stats.endHold("emptyheaded", 0, time.Millisecond)

	// Saturate the pool directly so every probe below faces ahead > 0.
	if err := srv.pool.acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	defer srv.pool.release(1)

	q := `SELECT ?who WHERE { <http://ex/alice> <http://ex/knows> ?who }`

	// Case 1: the held slot belongs to the fast engine. A monetdb request
	// (own EWMA ≈10s — irrelevant: it is not what the queue drains behind)
	// must be admitted, then queue past its deadline → 504, never 429.
	// Under the old shared EWMA the 10s sample would have rejected it.
	srv.stats.beginHold("emptyheaded", 1)
	code, body := get(t, queryURL(ts.URL, q, map[string]string{"engine": "monetdb", "timeout": "300ms"}))
	if code == http.StatusTooManyRequests {
		t.Fatalf("request queued behind fast work rejected: body %.200s", body)
	}
	if code != http.StatusGatewayTimeout {
		t.Fatalf("case 1: status %d, want 504 (queued past deadline); body %.200s", code, body)
	}

	// Case 2: the held slot belongs to the slow engine. Even a fast-engine
	// request is honestly rejected — the pool drains at monetdb speed.
	srv.stats.endHold("emptyheaded", 1, time.Millisecond)
	srv.stats.beginHold("monetdb", 1)
	code, body = get(t, queryURL(ts.URL, q, map[string]string{"engine": "emptyheaded", "timeout": "300ms"}))
	if code != http.StatusTooManyRequests {
		t.Fatalf("case 2: status %d, want 429; body %.200s", code, body)
	}

	// Case 3: occupancy untracked (slot held outside request handling) →
	// fall back to the requester's own EWMA; an engine with no samples
	// admits and learns.
	srv.stats.endHold("monetdb", 1, 10*time.Second)
	code, body = get(t, queryURL(ts.URL, q, map[string]string{"engine": "naive", "timeout": "300ms"}))
	if code == http.StatusTooManyRequests {
		t.Fatalf("sampleless engine rejected by admission control; body %.200s", body)
	}

	if st := srv.Stats(); st.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", st.Rejected)
	}
	// /stats attributes the EWMAs to their engines.
	el := srv.Stats().EngineLatency
	if el["monetdb"].HoldEWMAMs < el["emptyheaded"].HoldEWMAMs {
		t.Fatalf("hold EWMAs not split per engine: %+v", el)
	}
}

// TestSPARQLLimitOffsetEndToEnd: LIMIT/OFFSET clauses in the query text map
// onto the exact cursor caps, compose with ?offset=, and never widen the
// server's MaxRows ceiling.
func TestSPARQLLimitOffsetEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, denseStore(6), Config{MaxRows: -1}) // 216 triangle rows
	type out struct {
		Count     int  `json:"count"`
		Truncated bool `json:"truncated"`
	}
	run := func(q string, extra map[string]string) out {
		t.Helper()
		code, body := get(t, queryURL(ts.URL, q, extra))
		if code != http.StatusOK {
			t.Fatalf("%q: status %d, body %.300s", q, code, body)
		}
		var o out
		if err := json.Unmarshal([]byte(body), &o); err != nil {
			t.Fatalf("%q: bad JSON: %v", q, err)
		}
		return o
	}

	if o := run(triangleQuery+" LIMIT 10", nil); o.Count != 10 || !o.Truncated {
		t.Fatalf("LIMIT 10: count=%d truncated=%v, want 10/true", o.Count, o.Truncated)
	}
	if o := run(triangleQuery+" LIMIT 216", nil); o.Count != 216 || o.Truncated {
		t.Fatalf("LIMIT 216 (exact): count=%d truncated=%v, want 216/false", o.Count, o.Truncated)
	}
	if o := run(triangleQuery+" OFFSET 211", nil); o.Count != 5 || o.Truncated {
		t.Fatalf("OFFSET 211: count=%d truncated=%v, want 5/false", o.Count, o.Truncated)
	}
	if o := run(triangleQuery+" LIMIT 4 OFFSET 3", nil); o.Count != 4 || !o.Truncated {
		t.Fatalf("LIMIT 4 OFFSET 3: count=%d truncated=%v, want 4/true", o.Count, o.Truncated)
	}
	// OFFSET clause composes with the ?offset= parameter (they add).
	if o := run(triangleQuery+" OFFSET 100", map[string]string{"offset": "111"}); o.Count != 5 {
		t.Fatalf("OFFSET 100 + ?offset=111: count=%d, want 5", o.Count)
	}
	// LIMIT 0 yields no rows but the truncated flag stays exact.
	if o := run(triangleQuery+" LIMIT 0", nil); o.Count != 0 || !o.Truncated {
		t.Fatalf("LIMIT 0: count=%d truncated=%v, want 0/true", o.Count, o.Truncated)
	}
	if o := run(`SELECT ?x WHERE { <http://ex/n0> <http://ex/nope> ?x } LIMIT 0`, nil); o.Count != 0 || o.Truncated {
		t.Fatalf("LIMIT 0 on empty: count=%d truncated=%v, want 0/false", o.Count, o.Truncated)
	}

	// A client LIMIT cannot widen the operator ceiling.
	_, tsCapped := newTestServer(t, denseStore(6), Config{MaxRows: 50})
	code, body := get(t, queryURL(tsCapped.URL, triangleQuery+" LIMIT 200", nil))
	if code != http.StatusOK {
		t.Fatalf("capped server: status %d, body %.300s", code, body)
	}
	var capped out
	if err := json.Unmarshal([]byte(body), &capped); err != nil {
		t.Fatal(err)
	}
	if capped.Count != 50 || !capped.Truncated {
		t.Fatalf("ceiling: count=%d truncated=%v, want 50/true", capped.Count, capped.Truncated)
	}
}
