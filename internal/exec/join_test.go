package exec

import (
	"fmt"
	"testing"

	"repro/internal/plan"
	"repro/internal/set"
	"repro/internal/trie"
)

// TestJoinerSetupAllocs pins the allocations of setting up a join —
// newJoiner, indexLevels included — for 3 and 6 attributes: the per-input
// level indices and the per-attribute participant lists are slabs shared
// by all inputs and attributes, not a slice or three per attribute. Every
// GHD node's join pays the set-up, so it shows in the microsecond queries
// of a point-lookup workload. The joins are n-cycles whose tail is planned,
// so planning it is counted too. CI runs it on its own without the race
// detector, under which allocation counts mean nothing.
func TestJoinerSetupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const maxAllocs = 7
	tr := trie.BuildFromRows([][]uint32{{1, 2}, {2, 3}, {3, 1}}, 2, set.PolicyUintOnly)
	for _, n := range []int{3, 6} {
		// ?a0 → ?a1 → … → ?a(n-1) plus the closing edge ?a0 → ?a(n-1).
		attrs := make([]plan.Attr, n)
		for i := range attrs {
			attrs[i] = plan.Attr{Name: fmt.Sprintf("a%d", i)}
		}
		inputs := []*input{newInput(tr, []plan.Attr{attrs[0], attrs[n-1]})}
		for i := 0; i+1 < n; i++ {
			inputs = append(inputs, newInput(tr, attrs[i:i+2]))
		}
		if j := newJoiner(attrs, inputs); j.tailAt != n-2 {
			t.Fatalf("%d attributes: tail planned at %d, want %d", n, j.tailAt, n-2)
		}
		allocs := testing.AllocsPerRun(100, func() {
			for _, in := range inputs {
				in.at = nil
			}
			newJoiner(attrs, inputs)
		})
		if allocs > maxAllocs {
			t.Errorf("%d attributes: newJoiner made %.0f allocations, want at most %d", n, allocs, maxAllocs)
		}
		t.Logf("%d attributes, %d inputs: %.0f allocations", n, len(inputs), allocs)
	}
}
