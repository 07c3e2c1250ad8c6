package exec

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/plan"
	"repro/internal/set"
	"repro/internal/trie"
)

// TestTailBoundAcrossPasses drives the fused tail with a symmetry bound
// that falls between passes while the tail's one fixed leaf stays the same
// node. The join is over attributes [u a m b] with inputs T(u,m), R(a,m),
// R(b,m), S(a) and S(b), symmetric under swapping a and b. At the last
// attribute b, S(b) is one level deep, so its leaf is its root for the whole
// join — the one-F leaf hoist reuses — and R(b,m) enters at m. The bound
// b ≥ a restarts low when u moves on, so ∩F must not carry the bound of
// an earlier pass. The rows must equal a brute-force enumeration.
func TestTailBoundAcrossPasses(t *testing.T) {
	const n = 24
	rng := rand.New(rand.NewSource(7))
	pairs := func(k int) [][]uint32 {
		seen := map[[2]uint32]bool{}
		var rows [][]uint32
		for len(rows) < k {
			e := [2]uint32{1 + uint32(rng.Intn(n)), 1 + uint32(rng.Intn(n))}
			if !seen[e] {
				seen[e] = true
				rows = append(rows, e[:])
			}
		}
		return rows
	}
	// The first u reaches only m = 1, whose R in-neighbours are all in the
	// upper half: the first pass that hoists ∩F does so at a high bound.
	tRows, rRows := pairs(60), pairs(120)
	tRows = slices.DeleteFunc(tRows, func(r []uint32) bool { return r[0] == 1 })
	tRows = append(tRows, []uint32{1, 1})
	rRows = slices.DeleteFunc(rRows, func(r []uint32) bool { return r[1] == 1 && r[0] <= n/2 })
	rRows = append(rRows, []uint32{n/2 + 1, 1}, []uint32{n, 1})
	var sRows [][]uint32
	for v := uint32(1); v <= n; v++ {
		if v > n/2 || rng.Intn(3) > 0 {
			sRows = append(sRows, []uint32{v})
		}
	}
	has := func(rows [][]uint32, row ...uint32) bool {
		return slices.ContainsFunc(rows, func(r []uint32) bool { return slices.Equal(r, row) })
	}
	var want [][]uint32
	for u := uint32(1); u <= n; u++ {
		for a := uint32(1); a <= n; a++ {
			for m := uint32(1); m <= n; m++ {
				for b := uint32(1); b <= n; b++ {
					if has(tRows, u, m) && has(rRows, a, m) && has(rRows, b, m) && has(sRows, a) && has(sRows, b) {
						want = append(want, []uint32{u, a, m, b})
					}
				}
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("no rows; the test tests nothing")
	}

	attr := func(names ...string) []plan.Attr {
		out := make([]plan.Attr, len(names))
		for i, nm := range names {
			out[i] = plan.Attr{Name: nm}
		}
		return out
	}
	flip := func(rows [][]uint32) [][]uint32 {
		out := make([][]uint32, len(rows))
		for i, r := range rows {
			out[i] = []uint32{r[1], r[0]}
		}
		return out
	}
	pol := set.PolicyUintOnly
	s := trie.BuildFromRows(sRows, 1, pol)
	inputs := []*input{
		newInput(trie.BuildFromRows(tRows, 2, pol), attr("u", "m")),
		newInput(trie.BuildFromRows(rRows, 2, pol), attr("a", "m")),
		newInput(trie.BuildFromRows(flip(rRows), 2, pol), attr("m", "b")),
		newInput(s, attr("a")),
		newInput(s, attr("b")),
	}
	j := newJoiner(attr("u", "a", "m", "b"), inputs)
	if j.tailAt != 2 || len(j.fix) != 1 || j.vary != inputs[2] {
		t.Fatalf("the join does not end in a tail with S(b) fixed and R(b,m) varying: tailAt=%d |F|=%d", j.tailAt, len(j.fix))
	}
	j.sym = &symmetry{perms: [][]int{{0, 3, 2, 1}}, a: 1, bounded: []bool{false, false, false, true}}
	var got [][]uint32
	if err := j.run(func(b []uint32) error {
		got = append(got, slices.Clone(b))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(got, slices.Compare)
	slices.SortFunc(want, slices.Compare)
	if !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
}

// TestLastStepStaysWithinBound drives the last attribute's own step — P a
// selection, so P's step cannot fuse — under a symmetry bound: the join is
// over [a s b] with s the constant 1, b bounded by a, and a symmetry with
// no permutations, so every binding the join enumerates comes out and the
// bound alone decides which. ∩F is T's leaf below (a, 1) alone — read from
// the arena under the uint policy, walked as a bitset under the adaptive
// one — or its intersection with the one-level U(b). Each must give
// exactly the brute-force rows with b ≥ a.
func TestLastStepStaysWithinBound(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(11))
	var tRows, uRows [][]uint32
	inT := map[[2]uint32]bool{}
	inU := map[uint32]bool{}
	for a := uint32(1); a <= n; a++ {
		for b := uint32(1); b <= n; b++ {
			if rng.Intn(3) > 0 { // dense: the adaptive policy lays leaves out as bitsets
				tRows = append(tRows, []uint32{a, 1, b})
				inT[[2]uint32{a, b}] = true
			}
			tRows = append(tRows, []uint32{a, 2, b})
		}
		if rng.Intn(4) > 0 {
			uRows = append(uRows, []uint32{a})
			inU[a] = true
		}
	}
	attrs := []plan.Attr{{Name: "a"}, {Name: "s", IsSel: true, Value: 1}, {Name: "b"}}
	for _, tc := range []struct {
		name   string
		policy set.Policy
		withU  bool
	}{
		{"uint-leaf", set.PolicyUintOnly, false},
		{"bitset-leaf", set.PolicyAdaptive, false},
		{"uint-intersection", set.PolicyUintOnly, true},
		{"bitset-intersection", set.PolicyAdaptive, true},
	} {
		tr := trie.BuildFromRows(tRows, 3, tc.policy)
		if leaf := tr.Export()[2].Stats; (leaf.BitsetNodes > 0) != (tc.policy == set.PolicyAdaptive) {
			t.Fatalf("%s: T's leaf level has %d bitset nodes", tc.name, leaf.BitsetNodes)
		}
		inputs := []*input{newInput(tr, attrs)}
		if tc.withU {
			inputs = append(inputs, newInput(trie.BuildFromRows(uRows, 1, tc.policy), attrs[2:]))
		}
		j := newJoiner(attrs, inputs)
		if !j.lastLeaf || j.tailAt >= 0 || len(j.fix) != len(inputs) {
			t.Fatalf("%s: the last attribute does not run its own step over every input: tailAt=%d |F|=%d", tc.name, j.tailAt, len(j.fix))
		}
		j.sym = &symmetry{a: 0, bounded: []bool{false, false, true}}
		var got, want [][]uint32
		if err := j.run(func(b []uint32) error {
			got = append(got, slices.Clone(b))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for a := uint32(1); a <= n; a++ {
			for b := a; b <= n; b++ {
				if inT[[2]uint32{a, b}] && (!tc.withU || inU[b]) {
					want = append(want, []uint32{a, 1, b})
				}
			}
		}
		if !slices.EqualFunc(got, want, slices.Equal) {
			t.Errorf("%s: %d rows, want the %d with b ≥ a", tc.name, len(got), len(want))
		}
	}
}
