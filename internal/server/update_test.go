package server

// End-to-end tests of the write path: POST /update patches the delta
// overlay while the handler keeps answering queries, POST /compact swaps a
// fresh base in under a new epoch, the plan cache never serves a pre-swap
// plan (epoch-keyed), and a failing background compaction is logged.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/live"
	"repro/internal/rdf"
	"repro/internal/store"
)

func updateTestStore() *store.Store {
	b := store.NewBuilder()
	p := rdf.NewIRI("http://u/p")
	for i := 0; i < 8; i++ {
		b.Add(rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://u/s%d", i)),
			P: p,
			O: rdf.NewIRI(fmt.Sprintf("http://u/s%d", (i+1)%8)),
		})
	}
	return b.Build()
}

func postUpdate(t *testing.T, url, body string) map[string]any {
	t.Helper()
	resp, err := http.Post(url+"/update", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /update = %d: %s", resp.StatusCode, b)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func countRows(t *testing.T, url, q string) int {
	t.Helper()
	resp, err := http.Get(url + "/query?query=" + strings.ReplaceAll(q, " ", "+"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET /query = %d: %s", resp.StatusCode, b)
	}
	var out struct {
		Count int `json:"count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Count
}

const updateScan = `SELECT ?s ?o WHERE { ?s <http://u/p> ?o }`

func TestUpdateEndToEnd(t *testing.T) {
	srv, err := New(Config{Store: updateTestStore()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if n := countRows(t, ts.URL, updateScan); n != 8 {
		t.Fatalf("base rows = %d, want 8", n)
	}

	// Insert two edges, delete one base edge — visible immediately, no
	// compaction needed.
	rep := postUpdate(t, ts.URL, "+<http://u/n1> <http://u/p> <http://u/s0> .\n"+
		"<http://u/n2> <http://u/p> <http://u/n1> .\n"+
		"-<http://u/s0> <http://u/p> <http://u/s1> .\n")
	if rep["inserted"].(float64) != 2 || rep["deleted"].(float64) != 1 {
		t.Fatalf("update reply: %v", rep)
	}
	if n := countRows(t, ts.URL, updateScan); n != 9 {
		t.Fatalf("overlay rows = %d, want 9", n)
	}

	// Stats reflect the delta and the epoch has not moved.
	st := srv.Stats()
	if st.Live == nil || st.Live.Epoch != 0 || st.Live.DeltaInserts != 2 || st.Live.DeltaTombstones != 1 {
		t.Fatalf("live stats: %+v", st.Live)
	}
	if st.Triples != 9 || st.Live.BaseTriples != 8 {
		t.Fatalf("triple counts: total=%d base=%d", st.Triples, st.Live.BaseTriples)
	}
	if st.Live.Updates != 1 || st.Live.TriplesInserted != 2 || st.Live.TriplesDeleted != 1 {
		t.Fatalf("update counters: %+v", st.Live)
	}

	// Compact: new epoch, empty delta, same query results.
	resp, err := http.Post(ts.URL+"/compact", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var comp map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&comp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if comp["compacted"] != true || comp["epoch"].(float64) != 1 {
		t.Fatalf("compact reply: %v", comp)
	}
	if n := countRows(t, ts.URL, updateScan); n != 9 {
		t.Fatalf("post-compact rows = %d, want 9", n)
	}
	st = srv.Stats()
	if st.Live.Epoch != 1 || st.Live.DeltaInserts != 0 || st.Live.BaseTriples != 9 || st.Live.Compactions != 1 {
		t.Fatalf("post-compact live stats: %+v", st.Live)
	}

	// An empty patch is a valid no-op.
	rep = postUpdate(t, ts.URL, "")
	if rep["inserted"].(float64) != 0 {
		t.Fatalf("empty patch reply: %v", rep)
	}

	// ?compact=true on the update itself.
	resp, err = http.Post(ts.URL+"/update?compact=true", "text/plain",
		strings.NewReader("+<http://u/n3> <http://u/p> <http://u/n1> .\n"))
	if err != nil {
		t.Fatal(err)
	}
	var rep2 map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&rep2); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rep2["compacted"] != true || rep2["epoch"].(float64) != 2 {
		t.Fatalf("update+compact reply: %v", rep2)
	}
	if n := countRows(t, ts.URL, updateScan); n != 10 {
		t.Fatalf("rows after update+compact = %d, want 10", n)
	}
}

// TestPlanCacheEpochInvalidation: a plan cached before a compaction must
// never be served afterwards — the epoch in the cache key forces a miss and
// a recompile against the new base, and results stay correct for data that
// only exists post-swap.
func TestPlanCacheEpochInvalidation(t *testing.T) {
	srv, err := New(Config{Store: updateTestStore()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The constant in this query does not exist yet: the compiled plan is
	// the Empty plan (constant absent from the dictionary at epoch 0).
	probe := `SELECT ?o WHERE { <http://u/new> <http://u/p> ?o }`
	if n := countRows(t, ts.URL, probe); n != 0 {
		t.Fatalf("probe rows before insert = %d, want 0", n)
	}
	c0 := srv.Stats().PlanCache
	if n := countRows(t, ts.URL, probe); n != 0 {
		t.Fatal("probe rows changed without updates")
	}
	c1 := srv.Stats().PlanCache
	if c1.Hits != c0.Hits+1 {
		t.Fatalf("same-epoch repeat was not a cache hit: %+v -> %+v", c0, c1)
	}

	// Insert the entity and compact: the swap must invalidate the cached
	// Empty plan. If the old entry were served, the query would wrongly
	// return zero rows forever.
	postUpdate(t, ts.URL, "+<http://u/new> <http://u/p> <http://u/s0> .\n+<http://u/new> <http://u/p> <http://u/s1> .\n")
	if n := countRows(t, ts.URL, probe); n != 2 {
		t.Fatalf("probe rows with delta = %d, want 2", n)
	}
	if _, err := http.Post(ts.URL+"/compact", "", nil); err != nil {
		t.Fatal(err)
	}
	if n := countRows(t, ts.URL, probe); n != 2 {
		t.Fatalf("probe rows after compaction = %d, want 2 (stale pre-swap plan served?)", n)
	}
	c2 := srv.Stats().PlanCache
	if c2.Misses <= c1.Misses {
		t.Fatalf("post-swap query did not miss the epoch-keyed cache: %+v -> %+v", c1, c2)
	}
}

func TestUpdateRejections(t *testing.T) {
	srv, err := New(Config{Store: updateTestStore(), MaxUpdateBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// GET is not allowed.
	resp, err := http.Get(ts.URL + "/update")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /update = %d, want 405", resp.StatusCode)
	}

	// Malformed patch line.
	resp, err = http.Post(ts.URL+"/update", "text/plain", strings.NewReader("not a triple\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed patch = %d, want 400", resp.StatusCode)
	}

	// Oversized body.
	big := strings.Repeat("+<http://u/a> <http://u/p> <http://u/b> .\n", 10)
	resp, err = http.Post(ts.URL+"/update", "text/plain", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized patch = %d, want 413", resp.StatusCode)
	}

	// Nothing of the above changed the store.
	if n := srv.Live().NumTriples(); n != 8 {
		t.Fatalf("rejected updates mutated the store: %d triples", n)
	}
}

// failingDurability accepts every patch and fails to persist every
// compacted base, as a full disk or a failed fsync would.
type failingDurability struct{}

func (failingDurability) LogPatch(live.Patch) error { return nil }

func (failingDurability) Compacted(*store.Store, uint64) error {
	return errors.New("segment write: no space left on device")
}

// recordWriter hands each log record to a channel, dropping records nobody
// has room for so a logger never blocks on the test.
type recordWriter chan string

func (w recordWriter) Write(p []byte) (int, error) {
	select {
	case w <- string(p):
	default:
	}
	return len(p), nil
}

// TestBackgroundCompactionFailureLogged: when the background compactor's
// persistence step fails, the server's logger must receive an error record
// naming the failure.
func TestBackgroundCompactionFailureLogged(t *testing.T) {
	records := make(recordWriter, 16)
	logger := slog.New(slog.NewJSONHandler(records, nil))
	srv, err := New(Config{Store: updateTestStore(), Logger: logger, CompactEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Live().SetDurability(failingDurability{})
	if _, err := srv.Live().Insert([]rdf.Triple{{
		S: rdf.NewIRI("http://u/n1"), P: rdf.NewIRI("http://u/p"), O: rdf.NewIRI("http://u/s0"),
	}}); err != nil {
		t.Fatal(err)
	}

	timeout := time.After(10 * time.Second)
	for {
		var line string
		select {
		case line = <-records:
		case <-timeout:
			t.Fatal("no log record of the failed background compaction")
		}
		if !strings.Contains(line, "no space left on device") {
			continue
		}
		var rec struct {
			Level string `json:"level"`
			Msg   string `json:"msg"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("record is not JSON: %v in %q", err, line)
		}
		if rec.Level != "ERROR" || !strings.Contains(rec.Msg, "compaction") {
			t.Fatalf("record = %+v, want an ERROR-level compaction record", rec)
		}
		return
	}
}
