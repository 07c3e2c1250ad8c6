package engines_test

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/engines"
	"repro/internal/lubm"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/set"
	"repro/internal/store"
)

func lubmStore(t *testing.T) *store.Store {
	t.Helper()
	return store.FromTriples(lubm.Generate(lubm.Config{Universities: 1}))
}

func TestPolicyFollowsLayoutToggle(t *testing.T) {
	st := lubmStore(t)
	q := query.MustParseSPARQL(lubm.Query(2, 1))
	for _, tc := range []struct {
		opts plan.Options
		want set.Policy
	}{{plan.AllOptimizations, set.PolicyAdaptive}, {plan.NoOptimizations, set.PolicyUintOnly}} {
		p, err := engines.NewEmptyHeaded(st, tc.opts).Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		if p.Policy != tc.want {
			t.Errorf("Layout=%v: plan policy %d, want %d", tc.opts.Layout, p.Policy, tc.want)
		}
	}
}

func TestPlanCacheReusesPlans(t *testing.T) {
	st := lubmStore(t)
	e := engines.NewEmptyHeaded(st, plan.AllOptimizations)
	q := query.MustParseSPARQL(lubm.Query(14, 1))
	r1, err := engine.Execute(e, q)
	if err != nil {
		t.Fatalf("first execute: %v", err)
	}
	r2, err := engine.Execute(e, q)
	if err != nil {
		t.Fatalf("second execute: %v", err)
	}
	if r1.Canonical() != r2.Canonical() {
		t.Errorf("cached plan returned different result")
	}
}

func TestAllTogglesProduceSameResults(t *testing.T) {
	st := lubmStore(t)
	q := query.MustParseSPARQL(lubm.Query(4, 1))
	var want string
	for mask := 0; mask < 8; mask++ {
		opts := plan.Options{
			Layout:           mask&1 != 0,
			AttributeReorder: mask&2 != 0,
			GHDPushdown:      mask&4 != 0,
		}
		got, err := engine.Execute(engines.NewEmptyHeaded(st, opts), q)
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		if mask == 0 {
			want = got.Canonical()
			continue
		}
		if got.Canonical() != want {
			t.Errorf("opts %+v disagree with baseline", opts)
		}
	}
}

func TestPlanExposesDecomposition(t *testing.T) {
	st := lubmStore(t)
	e := engines.NewEmptyHeaded(st, plan.AllOptimizations)
	p, err := e.Plan(query.MustParseSPARQL(lubm.Query(2, 1)))
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if p.Decomposition == nil {
		t.Fatalf("plan has no decomposition")
	}
	if !strings.Contains(p.Decomposition.String(), "width=1.50") {
		t.Errorf("Q2 decomposition = %s", p.Decomposition)
	}
}

func TestParseErrorsPropagate(t *testing.T) {
	st := lubmStore(t)
	e := engines.NewEmptyHeaded(st, plan.AllOptimizations)
	bad := &query.BGP{Select: []string{"x"}} // no patterns
	if _, err := engine.Execute(e, bad); err == nil {
		t.Errorf("invalid query accepted")
	}
}
