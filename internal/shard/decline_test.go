package shard

// Tests for declining to scatter: the decision function on synthetic group
// estimates, and the routing it produces on a fixture shaped like the
// sharded benchmark's dataset.
//
// drainOpenCost (2000) was fitted on that benchmark's dataset — LUBM scale
// 4 plus a seeded 20,000-node, 200,000-edge knows digraph — at 4 shards,
// with every shard and the unsharded store running "auto", on a 2-core
// Intel Xeon. Medians of 101 in-process executions (9 for the triangle),
// the two sides interleaved in rotating order, unsharded vs with the
// scatter forced; c is the constant the row's correct routing needs:
//
//	query  unsharded  scattered  est. rows shipped  drains  local cost  needs
//	q5       46.0 µs     113 µs                972       4       6,791  c ≥ 1,455
//	q13      1.73 ms    1.00 ms              4,748       4      20,969  c < 4,055
//	q1       11.5 µs    50.8 µs                  8       3          92  c ≥ 28
//	q14      1.49 ms    2.77 ms             53,083       4      30,267  any c
//	tri      50.1 ms     258 ms          1,629,520       4      76,000  any c
//	q9       1.32 ms    0.65 ms              1,287       4      85,440  c < 21,038
//	q8       5.33 ms    0.46 ms                 30       4     105,228  c < 26,300
//	q2       0.24 ms    0.23 ms                 35       2      53,865  c < 26,915
//
// q5 and q13 bound the constant from both sides; 2000 sits inside
// [1,455, 4,055], and the same rule also keeps q9 (c < 4,503) and q8
// (c < 9,712) scattering at LUBM scale 1. The table predates auto serving
// one plan: its q13 row is the flat plan's drain and price (the GHD plan
// drains q13 unsharded in ≈ 0.13 ms and prices it at 22,123), so the
// upper bound q13 sets is due for re-measurement. The drain cost itself measures
// ≈ 13 µs (q1: 39 µs over 3 drains), but the cost model's units do not
// convert to time at one rate (≈ 50 ns per unit on q8 and q14, ≈ 660 ns
// on the triangle), so the constant is fitted to the crossovers rather
// than derived from the drain time.

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/naive"
	"repro/internal/lubm"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/store"
)

// TestDeclineScatterDecision prices synthetic plans: the streamed group
// always ships, build groups ship only when too large to memoize, and
// every opened drain costs drainOpenCost.
func TestDeclineScatterDecision(t *testing.T) {
	g := func(est float64, shards int) groupPlan {
		gp := groupPlan{est: est}
		for i := 0; i < shards; i++ {
			gp.shards = append(gp.shards, i)
		}
		return gp
	}
	const c = drainOpenCost
	cases := []struct {
		name        string
		gps         []groupPlan
		local       float64
		wantScatter float64
		wantDecline bool
	}{
		{"selective single: drains dominate", []groupPlan{g(8, 3)}, 92, 8 + 3*c, true},
		{"scan single: every row ships", []groupPlan{g(53083, 4)}, 30267, 53083 + 4*c, true},
		{"big-output single: work dominates", []groupPlan{g(4748, 4)}, 20969, 4748 + 4*c, false},
		{"constant root: one drain", []groupPlan{g(40, 1)}, 1e4, 40 + c, false},
		{"cost equal: declined", []groupPlan{g(100, 2)}, 100 + 2*c, 100 + 2*c, true},
		{"memoized build: probe ships alone", []groupPlan{g(30, 4), g(32137, 4)}, 105228, 30 + 4*c, false},
		{"memoized build, huge probe", []groupPlan{g(1.6e6, 4), g(350008, 4)}, 76000, 1.6e6 + 4*c, true},
		{"builds at the memo cap: still memoized", []groupPlan{g(500, 4), g(buildCacheMaxRows/2, 4), g(buildCacheMaxRows/2, 4)}, 1e5, 500 + 4*c, false},
		{"builds over the memo cap ship too",
			[]groupPlan{g(5e5, 4), g(6e5, 4), g(6e5, 4)}, 2e6, 5e5 + 6e5 + 6e5 + 12*c, false},
		{"builds over the memo cap, cheaper locally",
			[]groupPlan{g(5e5, 4), g(6e5, 4), g(6e5, 4)}, 1.5e6, 5e5 + 6e5 + 6e5 + 12*c, true},
	}
	for _, tc := range cases {
		cost, decline := declineScatter(tc.gps, tc.local)
		if cost != tc.wantScatter || decline != tc.wantDecline {
			t.Errorf("%s: declineScatter = (%v, %v), want (%v, %v)", tc.name, cost, decline, tc.wantScatter, tc.wantDecline)
		}
	}
}

// benchShapedStore is LUBM scale 1 plus a seeded knows digraph of 2,000
// nodes and 20,000 edges — the sharded benchmark's dataset at its smoke
// size.
func benchShapedStore() *store.Store {
	b := store.NewBuilder()
	lubm.GenerateTo(lubm.Config{Universities: 1}, b.Add)
	rng := rand.New(rand.NewSource(1))
	knows := rdf.NewIRI("http://bench/knows")
	node := func(i int) rdf.Term { return rdf.NewIRI("http://bench/n" + strconv.Itoa(i)) }
	seen := map[[2]int]bool{}
	for len(seen) < 20000 {
		e := [2]int{rng.Intn(2000), rng.Intn(2000)}
		if e[0] == e[1] || seen[e] {
			continue
		}
		seen[e] = true
		b.Add(rdf.Triple{S: node(e[0]), P: knows, O: node(e[1])})
	}
	return b.Build()
}

// TestDeclineRoutesBenchmarkShapes pins the cost model's routing on the
// benchmark-shaped fixture at 4 shards: the triangle's merge-layer hash
// join and q14's every-row scan lose to one unsharded engine, while q8 and
// q9 — a small probe against memoized build tables — keep scattering. A
// declined query opens no shard cursor and returns the unsharded result.
func TestDeclineRoutesBenchmarkShapes(t *testing.T) {
	st := benchShapedStore()
	p, e := naiveSharded(t, st, 4)
	tri := `SELECT ?x ?y ?z WHERE { ?x <http://bench/knows> ?y . ?y <http://bench/knows> ?z . ?z <http://bench/knows> ?x }`
	cases := []struct {
		name, text, kind string
	}{
		{"tri", tri, "local"},
		{"q14", lubm.Query(14, 1), "local"},
		{"q8", lubm.Query(8, 1), "join"},
		{"q9", lubm.Query(9, 1), "join"},
	}
	for _, c := range cases {
		ep, err := e.Explain(query.MustParseSPARQL(c.text))
		if err != nil {
			t.Fatal(err)
		}
		if ep.Kind != c.kind {
			t.Errorf("%s: kind %q (local cost %.0f, scatter cost %.0f), want %q", c.name, ep.Kind, ep.LocalCost, ep.ScatterCost, c.kind)
		}
		if ep.LocalCost <= 0 || ep.ScatterCost <= 0 {
			t.Errorf("%s: prices not recorded: %+v", c.name, ep)
		}
	}
	if got := p.PlanStats().PlansDeclined; got != 2 {
		t.Fatalf("PlansDeclined = %d, want 2", got)
	}

	q := query.MustParseSPARQL(lubm.Query(14, 1))
	want, err := engine.Collect(naive.New(st).Open(q, engine.ExecOpts{}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := engine.Collect(e.Open(q, engine.ExecOpts{}))
	if err != nil {
		t.Fatal(err)
	}
	if got.Canonical() != want.Canonical() {
		t.Fatalf("declined q14: %d rows, unsharded %d", got.Len(), want.Len())
	}
	for i, s := range p.Stats() {
		if s.Delivered != 0 {
			t.Fatalf("declined q14: shard %d delivered %d rows", i, s.Delivered)
		}
	}

	// A cluster coordinator scatters whatever the price.
	_, coord := naiveSharded(t, st, 4)
	coord.SetRemote(localOpener{coord})
	if ep, _ := coord.Explain(query.MustParseSPARQL(tri)); ep.Kind != "join" || ep.LocalCost != 0 {
		t.Fatalf("coordinator plan %+v, want an unpriced join", ep)
	}
}

// localOpener is a RemoteOpener that serves drains from the engine's own
// shards — enough to make it plan as a coordinator.
type localOpener struct{ e *Engine }

func (o localOpener) OpenShard(ctx context.Context, sh int, sub *query.BGP, _ RemoteHints) (engine.Cursor, error) {
	return o.e.engs[sh].Open(sub, engine.ExecOpts{Ctx: ctx})
}
