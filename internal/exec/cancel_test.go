package exec

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/set"
	"repro/internal/store"
	"repro/internal/trie"
)

// denseTriangleSetup builds a complete digraph over n vertices and compiles
// the triangle query, whose ~n^3 results make execution long enough to
// cancel mid-join.
func denseTriangleSetup(t *testing.T, n int) (*plan.Plan, *store.Store) {
	return triangleSetup(t, n, func(i, j int) bool { return true })
}

// wideLastLevelSetup builds a digraph in which each of the first sources
// vertices points at every vertex and the others point nowhere, so every
// triangle query result closes through one last-level intersection of all
// sources+sinks vertices — wider than cancelStride once sinks is.
func wideLastLevelSetup(t *testing.T, sources, sinks int) (*plan.Plan, *store.Store) {
	return triangleSetup(t, sources+sinks, func(i, j int) bool { return i < sources })
}

// triangleSetup builds the digraph over n vertices with the edges i → j
// for which edge(i, j) holds, and compiles the triangle query over it with
// the paper's layout rule.
func triangleSetup(t *testing.T, n int, edge func(i, j int) bool) (*plan.Plan, *store.Store) {
	t.Helper()
	b := store.NewBuilder()
	p := rdf.NewIRI("http://ex/p")
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if edge(i, j) {
				b.Add(rdf.Triple{
					S: rdf.NewIRI(fmt.Sprintf("http://ex/n%d", i)),
					P: p,
					O: rdf.NewIRI(fmt.Sprintf("http://ex/n%d", j)),
				})
			}
		}
	}
	st := b.Build()
	q := query.MustParseSPARQL(`SELECT ?x ?y ?z WHERE { ?x <http://ex/p> ?y . ?y <http://ex/p> ?z . ?x <http://ex/p> ?z }`)
	pl, err := plan.Compile(q, st, plan.AllOptimizations)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return WithPolicy(pl, set.PolicyAuto), st
}

func TestRunCancelledContext(t *testing.T) {
	pl, st := denseTriangleSetup(t, 20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunOpts(pl, st, engine.ExecOpts{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunCancelMidJoin cancels while the join is running and checks it
// aborts promptly instead of enumerating every triangle: on the dense
// digraph (~42M triangles, 350 per last-level intersection) and on one
// whose every last-level intersection is wider than cancelStride (~7M).
func TestRunCancelMidJoin(t *testing.T) {
	densePl, denseSt := denseTriangleSetup(t, 350)
	widePl, wideSt := wideLastLevelSetup(t, 40, 4500)
	for _, tc := range []struct {
		name   string
		pl     *plan.Plan
		st     *store.Store
		policy set.Policy
	}{
		{"dense", densePl, denseSt, set.PolicyAuto},
		{"wide-last-level/bitset", widePl, wideSt, set.PolicyAuto},
		{"wide-last-level/uint", widePl, wideSt, set.PolicyUintOnly},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := RunOpts(WithPolicy(tc.pl, tc.policy), tc.st, engine.ExecOpts{Ctx: ctx})
				done <- err
			}()
			time.Sleep(20 * time.Millisecond)
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("join did not react to cancellation within 10s")
			}
		})
	}
}

// TestLastAttributeCancelsWithinStride runs one last-level intersection of
// three strides' worth of values with an emit that never looks at the
// context (the materialization pass's) and cancels at the first row: the
// emission loop's own countdown must stop it within one stride.
func TestLastAttributeCancelsWithinStride(t *testing.T) {
	rows := make([][]uint32, 3*cancelStride)
	for i := range rows {
		rows[i] = []uint32{uint32(2 * i)}
	}
	attrs := []plan.Attr{{Name: "z"}}
	for _, policy := range []set.Policy{set.PolicyAuto, set.PolicyUintOnly} {
		tr := trie.BuildFromRows(rows, 1, policy)
		j := newJoiner(attrs, []*input{newInput(tr, attrs), newInput(tr, attrs)})
		ctx, cancel := context.WithCancel(context.Background())
		j.ctx = ctx
		emitted := 0
		err := j.run(func([]uint32) error {
			emitted++
			cancel()
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("policy %d: err = %v after %d rows, want context.Canceled", policy, err, emitted)
		}
		if emitted > cancelStride {
			t.Fatalf("policy %d: %d rows emitted after cancellation, want at most %d", policy, emitted, cancelStride)
		}
	}
}

// TestRunDeadlineParallel exercises the cancellation path of the parallel
// enumeration workers.
func TestRunDeadlineParallel(t *testing.T) {
	pl, st := denseTriangleSetup(t, 350)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := RunOpts(pl, st, engine.ExecOpts{Workers: 4, Ctx: ctx})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("deadline reaction took %v", elapsed)
	}
}

// TestRunNilContextUnchanged pins that Ctx == nil (every pre-existing
// caller) still runs to completion.
func TestRunNilContextUnchanged(t *testing.T) {
	pl, st := denseTriangleSetup(t, 8)
	res, err := RunOpts(pl, st, engine.ExecOpts{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.Rows) != 8*8*8 {
		t.Fatalf("rows = %d, want %d", len(res.Rows), 8*8*8)
	}
	if res.Truncated {
		t.Fatal("uncapped run reported Truncated")
	}
}

func TestRunMaxRows(t *testing.T) {
	densePl, denseSt := denseTriangleSetup(t, 12) // 1728 triangles
	// 4 triangles per (x, y) pair of the 2 sources, one last-level
	// intersection of 2+cancelStride values each.
	widePl, wideSt := wideLastLevelSetup(t, 2, cancelStride)
	for _, tc := range []struct {
		name  string
		pl    *plan.Plan
		st    *store.Store
		total int
	}{
		{"dense", densePl, denseSt, 12 * 12 * 12},
		{"wide-last-level", widePl, wideSt, 2 * 2 * (2 + cancelStride)},
	} {
		for _, policy := range []set.Policy{set.PolicyAuto, set.PolicyUintOnly} {
			run := func(maxRows int) *Result {
				t.Helper()
				res, err := RunOpts(WithPolicy(tc.pl, policy), tc.st, engine.ExecOpts{MaxRows: maxRows})
				if err != nil {
					t.Fatalf("%s policy %d: run: %v", tc.name, policy, err)
				}
				return res
			}
			if res := run(100); len(res.Rows) != 100 || !res.Truncated {
				t.Fatalf("%s policy %d: rows=%d truncated=%v, want 100/true", tc.name, policy, len(res.Rows), res.Truncated)
			}
			// A cap inside the first last-level intersection but past one
			// cancellation stride.
			if tc.total > cancelStride+1 {
				if res := run(cancelStride + 1); len(res.Rows) != cancelStride+1 || !res.Truncated {
					t.Fatalf("%s policy %d: rows=%d truncated=%v, want %d/true", tc.name, policy, len(res.Rows), res.Truncated, cancelStride+1)
				}
			}
			// A cap above the result size must not truncate.
			if res := run(10 * tc.total); len(res.Rows) != tc.total || res.Truncated {
				t.Fatalf("%s policy %d: rows=%d truncated=%v, want %d/false", tc.name, policy, len(res.Rows), res.Truncated, tc.total)
			}
			// A cap equal to the exact result size is a complete result, not
			// a truncated one.
			if res := run(tc.total); len(res.Rows) != tc.total || res.Truncated {
				t.Fatalf("%s policy %d: exact fit: rows=%d truncated=%v, want %d/false", tc.name, policy, len(res.Rows), res.Truncated, tc.total)
			}
		}
	}
}

func TestRunMaxRowsParallel(t *testing.T) {
	pl, st := denseTriangleSetup(t, 12)
	res, err := RunOpts(pl, st, engine.ExecOpts{Workers: 4, MaxRows: 100})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.Rows) != 100 || !res.Truncated {
		t.Fatalf("rows=%d truncated=%v, want 100/true", len(res.Rows), res.Truncated)
	}
}
