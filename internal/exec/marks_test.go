package exec

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/set"
	"repro/internal/trie"
)

// TestInvariantLeafMarks drives joiners whose last attribute has a
// loop-invariant leaf — the triangle's, a 4-cycle's (invariant across two
// levels) and a one-level input's (its root) — with a bitmap of the test's
// own seeded into the joiner. The probe must hold a leaf marked while rows
// are emitted; however the join ends — exhausted, stopped by emit as a
// LIMIT closing the cursor stops it, or cancelled mid-join — the bitmap
// must come back all zero and be released. Under a cap of zero words every
// leaf exceeds the cap, so nothing may be marked and the merge must emit
// the same rows.
func TestInvariantLeafMarks(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	triangle, st := triangleSetup(t, 200, func(i, j int) bool { return i != j && rng.Intn(10) == 0 })
	compile := func(text string) *plan.Plan {
		p, err := plan.Compile(query.MustParseSPARQL(text), st, plan.AllOptimizations)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		return p
	}
	fourCycle := compile(`SELECT ?a ?b ?c ?d WHERE { ?a <http://ex/p> ?b . ?b <http://ex/p> ?c . ?c <http://ex/p> ?d . ?d <http://ex/p> ?a }`)
	final := func(p *plan.Plan) func() *joiner {
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
		{"triangle/exhausted", final(triangle), 0, false},
		{"triangle/limit-close", final(triangle), 100, false},
		{"triangle/cancel", final(triangle), 100, true},
		{"four-cycle/exhausted", final(fourCycle), 0, false},
		{"root-leaf/exhausted", rootLeaf, 0, false},
	} {
		run := func(markWords int) (rows int, dirty bool, err error) {
			defer SetMaxMarkWords(markWords)()
			j := tc.join()
			if j.inv == nil {
				t.Fatalf("%s: no invariant leaf found", tc.name)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			j.ctx = ctx
			m := new(set.Marks)
			j.marks = m
			err = j.run(func([]uint32) error {
				rows++
				dirty = dirty || !m.IsClear()
				if rows == tc.stopAt {
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
			return rows, dirty, err
		}
		rows, dirty, err := run(maxMarkWords)
		t.Logf("%s: %d rows, err %v", tc.name, rows, err)
		if !dirty {
			t.Errorf("%s: no leaf was marked while rows were emitted", tc.name)
		}
		switch {
		case tc.stopAt == 0:
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			merged, mergedDirty, err := run(0)
			if err != nil || mergedDirty || merged != rows {
				t.Errorf("%s: with no leaf fitting the cap: %d rows (err %v, marked %v), want %d unmarked", tc.name, merged, err, mergedDirty, rows)
			}
		case tc.cancel:
			if !errors.Is(err, context.Canceled) || rows >= tc.stopAt+cancelStride {
				t.Fatalf("%s: err = %v after %d rows, want context.Canceled within a stride of %d", tc.name, err, rows, tc.stopAt)
			}
		default:
			if err != errStop || rows != tc.stopAt {
				t.Fatalf("%s: err = %v after %d rows, want the stop after %d", tc.name, err, rows, tc.stopAt)
			}
		}
	}
}
