package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/lubm"
	"repro/internal/rdf"
	"repro/internal/stats"
)

// TestPlanTemplates: a text miss whose shape and cost-model class were
// compiled before binds the new constants into the template instead of
// compiling, and the answer is the new text's own. The counters, the plan
// span and ?explain=plan all say which way a miss went; a text hit
// consults no template.
func TestPlanTemplates(t *testing.T) {
	s, ts := newTestServer(t, smallStore(), Config{})
	knows := func(who string) string {
		return `SELECT ?w WHERE { <http://ex/` + who + `> <http://ex/knows> ?w }`
	}
	explainPlan := func(q string) explainResponse {
		t.Helper()
		code, body := get(t, queryURL(ts.URL, q, map[string]string{"explain": "plan"}))
		var out explainResponse
		if code != http.StatusOK || json.Unmarshal([]byte(body), &out) != nil {
			t.Fatalf("explain=plan: %d %s", code, body)
		}
		return out
	}
	if got := explainPlan(knows("alice")); got.Cache != "miss" || got.Template != "miss" {
		t.Fatalf("first shape: cache %q template %q, want miss/miss", got.Cache, got.Template)
	}
	if got := explainPlan(knows("bob")); got.Cache != "miss" || got.Template != "hit" {
		t.Fatalf("second constant: cache %q template %q, want miss/hit", got.Cache, got.Template)
	}
	if got := explainPlan(knows("bob")); got.Cache != "hit" || got.Template != "" {
		t.Fatalf("repeat: cache %q template %q, want hit and no template lookup", got.Cache, got.Template)
	}

	// Carol knows nobody, so the cost model prices her text differently
	// from alice's and the class in the key gives her a template of her
	// own; the absent IRI shares that class and binds to an empty plan.
	for _, c := range []struct{ who, template string }{{"carol", "miss"}, {"nobody", "hit"}} {
		code, body := get(t, queryURL(ts.URL, knows(c.who), map[string]string{"explain": "1"}))
		var out explainBody
		if code != http.StatusOK || json.Unmarshal([]byte(body), &out) != nil {
			t.Fatalf("%s: %d %s", c.who, code, body)
		}
		if out.Count != 0 {
			t.Fatalf("%s: count %d, want 0", c.who, out.Count)
		}
		if sp := out.Trace.Root.Find("plan"); sp == nil || sp.Attrs["template"] != c.template {
			t.Fatalf("%s: plan span not stamped template=%s: %+v", c.who, c.template, sp)
		}
	}
	// The bound plan answers for its own constant, not the template's.
	_, body := get(t, queryURL(ts.URL, knows("bob"), map[string]string{"format": "tsv"}))
	if !strings.Contains(body, "<http://ex/carol>") || strings.Contains(body, "<http://ex/bob>") {
		t.Fatalf("bob's friends = %q, want carol only", body)
	}

	pc := s.Stats().PlanCache
	if pc.TemplateMisses != 2 || pc.TemplateHits != 2 || pc.Misses != 4 || pc.Hits != 2 {
		t.Fatalf("plan cache = %+v, want text 2 hits/4 misses, templates 2 hits/2 misses", pc)
	}
}

// TestAutoPicksOnServedPath: auto's plans carry their class, so a
// plan-cache hit opens the plan on its class's engine without the routing
// memo, and still stamps engine_class on the execute span and counts one
// pick in /stats.
func TestAutoPicksOnServedPath(t *testing.T) {
	_, ts := newTestServer(t, lubmScale1(), Config{DefaultEngine: "auto"})
	q := lubm.Query(1, 1)
	if code, body := get(t, queryURL(ts.URL, q, nil)); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	before := stats.Default.Snapshot()
	code, body := get(t, queryURL(ts.URL, q, map[string]string{"explain": "1"}))
	after := stats.Default.Snapshot()
	if code != http.StatusOK || !strings.Contains(body, `"cache":"hit"`) {
		t.Fatalf("second request not a cache hit: %d %.300s", code, body)
	}
	var out explainBody
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if cls, _ := out.Trace.Root.Find("execute").Attrs["engine_class"].(string); cls == "" {
		t.Fatalf("execute span has no engine_class: %s", body)
	}
	picks := func(s stats.ChooserSnapshot) (n uint64) {
		for _, v := range s.EnginePicks {
			n += v
		}
		return n
	}
	if d := picks(after) - picks(before); d != 1 {
		t.Fatalf("engine picks moved by %d, want 1", d)
	}
	if after.CostLookups != before.CostLookups {
		t.Fatalf("served path consulted the routing memo (%d → %d lookups)", before.CostLookups, after.CostLookups)
	}
}

// TestTemplateHeapFlat is the served path's leak check: 10,000 distinct
// constant-rooted texts of three shapes (LUBM q4, q5, q12 with real
// constants and with IRIs the dictionary lacks) through Server.Handler()
// on auto compile at most one template per shape and leave the live heap
// where a full plan cache and trace ring put it. Plans live only in the
// server's bounded cache; before templates, every text also left its
// plan in the engines' pointer-keyed memos (+18.8 MB over this run).
func TestTemplateHeapFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("heap measurements are meaningless under the race detector")
	}
	const texts, warm = 10000, 1000
	st := lubmScale1()
	s, err := New(Config{Store: st, DefaultEngine: "auto"})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	dept, univ := lubm.DepartmentIRI(0, 0), lubm.UniversityIRI(0)
	shapes := []struct{ text, old string }{
		{lubm.Query(4, 1), dept},
		{lubm.Query(5, 1), dept},
		{lubm.Query(12, 1), univ},
	}
	// Each shape's first text keeps its own constant; after that, even
	// texts take the data's other subject IRIs and odd ones absent IRIs.
	var real []string
	seen := map[string]bool{dept: true, univ: true}
	lubm.GenerateTo(lubm.Config{Universities: 1}, func(tr rdf.Triple) {
		if tr.S.IsIRI() && !seen[tr.S.Value] {
			seen[tr.S.Value] = true
			real = append(real, tr.S.Value)
		}
	})
	seen = nil
	serve := func(i int) {
		sh := shapes[i%len(shapes)]
		c := fmt.Sprintf("http://absent.example/%d", i)
		switch {
		case i < len(shapes):
			c = sh.old
		case i%2 == 0:
			c = real[i/2]
		}
		text := strings.Replace(sh.text, "<"+sh.old+">", "<"+c+">", 1)
		req := httptest.NewRequest(http.MethodGet, queryURL("http://heap", text, nil), nil)
		w := &discardWriter{h: http.Header{}, status: http.StatusOK}
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("text %d: status %d", i, w.status)
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}

	for i := 0; i < warm; i++ {
		serve(i)
	}
	base := liveHeap()
	for i := warm; i < texts; i++ {
		serve(i)
	}
	grown := int64(liveHeap()) - int64(base)

	pc := s.Stats().PlanCache
	if pc.Misses != texts {
		t.Fatalf("text misses = %d, want %d distinct texts", pc.Misses, texts)
	}
	if pc.TemplateHits+pc.TemplateMisses != pc.Misses {
		t.Fatalf("template lookups %d+%d != text misses %d", pc.TemplateHits, pc.TemplateMisses, pc.Misses)
	}
	if pc.TemplateMisses > uint64(len(shapes)) {
		t.Fatalf("template misses = %d, want ≤ %d (one per shape)", pc.TemplateMisses, len(shapes))
	}
	if grown >= 2<<20 {
		t.Fatalf("live heap grew %.1f MB over %d texts, want < 2 MB", float64(grown)/(1<<20), texts-warm)
	}
	t.Logf("live heap %+.2f MB over %d texts; templates %d hits / %d misses", float64(grown)/(1<<20), texts-warm, pc.TemplateHits, pc.TemplateMisses)
}
