package exec

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/set"
	"repro/internal/store"
	"repro/internal/trie"
)

// TestInvariantLeafMarks drives joiners that end in the fused tail with a
// fixed leaf and a varying one — the triangle's, a 4-cycle's (fixed across
// two levels), a one-level input's (its root) and a hub's, whose
// penultimate loop holds more matches than a block — with a bitmap of the
// test's own seeded into the joiner. The probe must hold ∩F marked while
// rows are emitted; however the join ends — exhausted, stopped by emit as a
// LIMIT closing the cursor stops it, or cancelled mid-join — the bitmap
// must come back all zero and be released, and the block must still be at
// its cap. Under a cap of zero words no ∩F fits, so nothing may be marked
// and the merge must emit the same rows in the same order.
func TestInvariantLeafMarks(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	triangle, st := triangleSetup(t, 200, func(i, j int) bool { return i != j && rng.Intn(10) == 0 })
	// Vertex 0 points at every other vertex: under ?x = 0, the first pass,
	// the penultimate attribute ?y has 299 matches, and the 8,000th row
	// comes from the pass's second block.
	hub, hubSt := triangleSetup(t, 300, func(i, j int) bool { return i != j && (i == 0 || rng.Intn(10) == 0) })
	compile := func(text string) *plan.Plan {
		p, err := plan.Compile(query.MustParseSPARQL(text), st, plan.AllOptimizations)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		return p
	}
	fourCycle := compile(`SELECT ?a ?b ?c ?d WHERE { ?a <http://ex/p> ?b . ?b <http://ex/p> ?c . ?c <http://ex/p> ?d . ?d <http://ex/p> ?a }`)
	final := func(p *plan.Plan, st *store.Store) func() *joiner {
		return func() *joiner {
			e := &executor{st: st, policy: set.PolicyUintOnly}
			inputs, attrs, err := e.prepare(p)
			if err != nil || e.dead {
				t.Fatalf("prepare: %v (dead %v)", err, e.dead)
			}
			return newJoiner(attrs, inputs)
		}
	}
	// ?y p ?z joined with the one-level trie of the first subject's
	// out-neighbours: the shape a GHD child node's materialized result
	// takes in its parent.
	rootLeaf := func() *joiner {
		tr := st.RelationByIRI("http://ex/p").TrieSO(set.PolicyUintOnly)
		var rows [][]uint32
		for _, v := range tr.Root().Child(0).Set().AppendValues(nil) {
			rows = append(rows, []uint32{v})
		}
		attrs := []plan.Attr{{Name: "y"}, {Name: "z"}}
		one := trie.BuildFromRows(rows, 1, set.PolicyUintOnly)
		return newJoiner(attrs, []*input{newInput(tr, attrs), newInput(one, attrs[1:])})
	}

	errStop := errors.New("stop")
	for _, tc := range []struct {
		name   string
		join   func() *joiner
		stopAt int // rows after which emit stops or cancels; 0 drains
		cancel bool
	}{
		{"triangle/exhausted", final(triangle, st), 0, false},
		{"triangle/limit-close", final(triangle, st), 100, false},
		{"triangle/cancel", final(triangle, st), 100, true},
		{"four-cycle/exhausted", final(fourCycle, st), 0, false},
		{"root-leaf/exhausted", rootLeaf, 0, false},
		{"hub/exhausted", final(hub, hubSt), 0, false},
		{"hub/limit-close", final(hub, hubSt), 8000, false},
		{"hub/cancel", final(hub, hubSt), 8000, true},
	} {
		run := func(markWords int) (rows []uint32, n int, dirty bool, err error) {
			defer SetMaxMarkWords(markWords)()
			j := tc.join()
			if j.tailAt < 0 || len(j.fix) == 0 || j.vary == nil {
				t.Fatalf("%s: no fused tail with a fixed and a varying input planned", tc.name)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			j.ctx = ctx
			m := new(set.Marks)
			j.marks = m
			err = j.run(func(b []uint32) error {
				rows = append(rows, b...)
				n++
				dirty = dirty || !m.IsClear()
				if n == tc.stopAt {
					if !tc.cancel {
						return errStop
					}
					cancel()
				}
				return nil
			})
			if !m.IsClear() {
				t.Fatalf("%s markWords=%d: the bitmap was released with marks set", tc.name, markWords)
			}
			if j.marks != nil {
				t.Fatalf("%s markWords=%d: the bitmap was not released", tc.name, markWords)
			}
			if cap(j.block) != tailBlock {
				t.Fatalf("%s markWords=%d: the block's capacity is %d, want %d", tc.name, markWords, cap(j.block), tailBlock)
			}
			return rows, n, dirty, err
		}
		rows, n, dirty, err := run(maxMarkWords)
		t.Logf("%s: %d rows, err %v", tc.name, n, err)
		if !dirty {
			t.Errorf("%s: nothing was marked while rows were emitted", tc.name)
		}
		switch {
		case tc.stopAt == 0:
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			merged, mn, mergedDirty, err := run(0)
			if err != nil || mergedDirty || !slices.Equal(merged, rows) {
				t.Errorf("%s: with no ∩F fitting the cap: %d rows (err %v, marked %v), want the same %d rows in the same order, unmarked", tc.name, mn, err, mergedDirty, n)
			}
		case tc.cancel:
			if !errors.Is(err, context.Canceled) || n >= tc.stopAt+cancelStride {
				t.Fatalf("%s: err = %v after %d rows, want context.Canceled within a stride of %d", tc.name, err, n, tc.stopAt)
			}
		default:
			if err != errStop || n != tc.stopAt {
				t.Fatalf("%s: err = %v after %d rows, want the stop after %d", tc.name, err, n, tc.stopAt)
			}
		}
	}
}
