package trie

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/set"
)

// genColumns produces arity random columns of n rows with per-level value
// skew: level 0 draws from a small domain (dense child sets downstream),
// later levels from wide domains — the mix that makes the adaptive layout
// rule pick differently from the paper's 1-in-256 rule on real data.
func genColumns(rng *rand.Rand, n, arity int) [][]uint32 {
	cols := make([][]uint32, arity)
	for l := range cols {
		domain := 1 << (4 + 7*l) // 16, 2048, 262144, ...
		cols[l] = make([]uint32, n)
		for i := range cols[l] {
			cols[l][i] = uint32(rng.Intn(domain))
		}
	}
	return cols
}

// TestAdaptivePolicyNeverChangesResults is the safety property behind the
// statistics-driven layout chooser: the layout policy is a physical
// decision, so enumerating a trie built under the adaptive rule must yield
// exactly the tuples of the same data built under the uint-only and paper
// policies. (The engine conformance suite checks the same property end to
// end through every engine, auto included; this pins it at the
// trie layer where a layout bug would originate.)
func TestAdaptivePolicyNeverChangesResults(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(4000)
		arity := 2 + rng.Intn(2)
		cols := genColumns(rng, n, arity)
		enumerate := func(policy set.Policy) [][]uint32 {
			var out [][]uint32
			BuildFromColumns(cols, policy).Each(func(tuple []uint32) bool {
				out = append(out, append([]uint32(nil), tuple...))
				return true
			})
			return out
		}
		want := enumerate(set.PolicyUintOnly)
		for _, policy := range []set.Policy{set.PolicyAuto, set.PolicyAdaptive} {
			if got := enumerate(policy); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: policy %v enumerates %d tuples differently than uint-only (%d)",
					trial, policy, len(got), len(want))
			}
		}
	}
}

// TestBuildRecordsLevelStats checks the histograms the build pass persists:
// node counts must add up (every node is either bitset or uint), total
// cardinality must equal what enumeration visits, and the flip counter only
// moves under the adaptive policy (it counts disagreements with the paper
// rule, which agrees with itself by definition under PolicyAuto).
func TestBuildRecordsLevelStats(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cols := genColumns(rng, 3000, 3)
	for _, policy := range []set.Policy{set.PolicyAuto, set.PolicyAdaptive, set.PolicyUintOnly} {
		tr := BuildFromColumns(cols, policy)
		ls := tr.Export()
		if len(ls) != tr.Arity() {
			t.Fatalf("policy %v: %d stat levels for arity %d", policy, len(ls), tr.Arity())
		}
		for l, ld := range ls {
			s := ld.Stats
			if s.Nodes == 0 {
				t.Fatalf("policy %v level %d: zero nodes", policy, l)
			}
			if s.BitsetNodes+s.UintNodes != s.Nodes {
				t.Errorf("policy %v level %d: %d bitset + %d uint != %d nodes",
					policy, l, s.BitsetNodes, s.UintNodes, s.Nodes)
			}
			if s.MinCard > s.MaxCard || s.TotalCard < s.MaxCard {
				t.Errorf("policy %v level %d: inconsistent cards min=%d max=%d total=%d",
					policy, l, s.MinCard, s.MaxCard, s.TotalCard)
			}
			if policy == set.PolicyAuto && s.Flips != 0 {
				t.Errorf("paper policy recorded %d flips at level %d", s.Flips, l)
			}
			if s.TotalCard > s.SpanSum {
				t.Errorf("policy %v level %d: %d members over a span of %d", policy, l, s.TotalCard, s.SpanSum)
			}
		}
	}
	var nodes uint64
	for _, ld := range BuildFromColumns(cols, set.PolicyAdaptive).Export() {
		nodes += ld.Stats.Nodes
	}
	if nodes == 0 {
		t.Fatal("summed stats empty")
	}
}
