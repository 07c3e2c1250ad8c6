package plan_test

import (
	"math"
	"testing"

	"repro/internal/lubm"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/store"
)

func profile(t testing.TB, st *store.Store, text string) plan.Profile {
	t.Helper()
	q, err := query.ParseSPARQL(text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prof, err := plan.ProfileQuery(q, st)
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	return prof
}

// TestCostPinsServedPrices pins the price of four LUBM queries at scale 1
// to the values recorded before auto lost its per-query choice of plan:
// the GHD plan's price for q1, q2 and q7 and the scan price of the
// join-free q14. The plan cache evicts by this price and a sharded server
// declines to scatter by it, so a change to the formula or its constants
// fails here rather than as a moved eviction or a flipped decline.
func TestCostPinsServedPrices(t *testing.T) {
	st := lubmStore(t)
	for qn, want := range map[int]float64{
		1:  78.13160006599473,
		2:  11572.143307518494,
		7:  11175.155508513308,
		14: 6622,
	} {
		if got := profile(t, st, lubm.Query(qn, 1)).Cost(); math.Abs(got-want) > 1e-9*want {
			t.Errorf("q%d: cost %v, want %v", qn, got, want)
		}
	}
}

func TestProfileEmptyQuery(t *testing.T) {
	st := store.FromTriples([]rdf.Triple{t3("a", "p", "b")})
	prof := profile(t, st, `SELECT ?x WHERE { ?x <p> <zzz> . }`)
	if !prof.Empty {
		t.Fatalf("profile with unknown constant should be Empty")
	}
	if cost := prof.Cost(); cost != 0 {
		t.Errorf("empty profile cost = %f, want 0", cost)
	}
}
