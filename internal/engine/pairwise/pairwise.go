// Package pairwise implements the classic pairwise (one-join-at-a-time)
// query executor shared by the MonetDB-, RDF-3X-, and TripleBit-like
// baselines of the paper's evaluation. The engines differ only in their
// access paths (ScanProvider): column scans for the relational column
// store, clustered permutation indexes for RDF-3X, per-predicate matrices
// for TripleBit. Join ordering is a Selinger-style dynamic program over
// left-deep plans with textbook cardinality estimation; physical joins are
// hash joins or, when the provider supports bound lookups, index
// nested-loop joins.
//
// Execution satisfies the engine.Cursor contract: intermediates are still
// fully materialized between operators (that is the model the paper
// evaluates), but every scan, build, and probe loop polls the execution
// context on a stride, so a cancelled request abandons the pipeline
// promptly instead of running detached, and the final projection streams
// row-by-row through the cursor.
//
// This is exactly the engine family the paper proves asymptotically
// suboptimal on cyclic queries (§I): any pairwise plan for the triangle
// takes Ω(N²) in the worst case, while the generic worst-case optimal join
// in internal/exec runs in O(N^{3/2}).
package pairwise

import (
	"context"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/query"
)

// Table is a materialized intermediate relation over named variables.
type Table struct {
	Vars []string
	Rows [][]uint32
}

// VarIndex returns the column index of v, or -1.
func (t *Table) VarIndex(v string) int {
	for i, x := range t.Vars {
		if x == v {
			return i
		}
	}
	return -1
}

// ScanProvider supplies access paths for one dataset. Scan and
// ScanBoundEach receive the execution context and must poll it on a stride
// (engine.NewTicker) inside their row loops, returning its error once done
// — this is what makes the pairwise engines cooperatively cancellable all
// the way down to their access paths.
type ScanProvider interface {
	// Scan returns all rows matching pat, one column per distinct
	// variable of pat (in subject, predicate, object order).
	Scan(ctx context.Context, pat query.Pattern) (*Table, error)
	// CanBind reports whether ScanBoundEach supports lookups with the
	// given variables pre-bound.
	CanBind(pat query.Pattern, bound []string) bool
	// ScanBoundEach streams rows of pat that agree with the given
	// bindings; rows use the same column order as Scan. The row slice is
	// reused; callers must copy.
	ScanBoundEach(ctx context.Context, pat query.Pattern, bound []string, values []uint32, emit func(row []uint32)) error
	// EstimateCard estimates the number of rows Scan would return.
	EstimateCard(pat query.Pattern) float64
	// EstimateBound estimates the rows per lookup of ScanBoundEach.
	EstimateBound(pat query.Pattern, bound []string) float64
	// EstimateDistinct estimates the number of distinct values of
	// variable v among the rows of Scan(pat).
	EstimateDistinct(pat query.Pattern, v string) float64
}

// Engine executes BGPs with pairwise joins over a ScanProvider.
type Engine struct {
	name  string
	scans ScanProvider
}

// New returns a pairwise engine with the given name and access paths.
func New(name string, scans ScanProvider) *Engine {
	return &Engine{name: name, scans: scans}
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return e.name }

// PatternVars returns the distinct variables of a pattern in S, P, O order.
func PatternVars(pat query.Pattern) []string {
	var out []string
	seen := map[string]bool{}
	for _, n := range []query.Node{pat.S, pat.P, pat.O} {
		if n.IsVar && !seen[n.Var] {
			seen[n.Var] = true
			out = append(out, n.Var)
		}
	}
	return out
}

// Open implements engine.Engine. The join pipeline runs on the cursor's
// producer goroutine; the final projection streams through the cursor.
func (e *Engine) Open(q *query.BGP, opts engine.ExecOpts) (engine.Cursor, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Err(); err != nil {
		return nil, err
	}
	// Join ordering is planning: it runs synchronously so Open reports its
	// errors directly (the Engine contract), and only execution streams.
	steps, err := e.optimize(q.Patterns)
	if err != nil {
		return nil, err
	}
	cur := engine.NewGenerator(opts.Ctx, q.Select, func(ctx context.Context, out *engine.Emitter) error {
		cur, err := e.scans.Scan(ctx, q.Patterns[steps[0].pattern])
		if err != nil {
			return err
		}
		for _, s := range steps[1:] {
			pat := q.Patterns[s.pattern]
			if s.useINLJ {
				cur, err = e.indexNestedLoopJoin(ctx, cur, pat)
			} else {
				var right *Table
				right, err = e.scans.Scan(ctx, pat)
				if err == nil {
					cur, err = hashJoin(ctx, cur, right)
				}
			}
			if err != nil {
				return err
			}
		}
		return project(ctx, cur, q.Select, q.Distinct, out)
	})
	return engine.Limit(cur, opts.Offset, opts.MaxRows), nil
}

// project streams the final table's SELECT columns into out, deduplicating
// when distinct is set.
func project(ctx context.Context, t *Table, sel []string, distinct bool, out *engine.Emitter) error {
	idx := make([]int, len(sel))
	for i, v := range sel {
		idx[i] = t.VarIndex(v)
	}
	var seen *engine.RowSet
	if distinct {
		seen = &engine.RowSet{}
	}
	tick := engine.NewTicker(ctx)
	for _, row := range t.Rows {
		if err := tick.Check(); err != nil {
			return err
		}
		dst := out.Slot()
		for i, j := range idx {
			dst[i] = row[j]
		}
		if seen != nil && !seen.Add(dst) {
			continue
		}
		if err := out.Push(); err != nil {
			return err
		}
	}
	return nil
}

// --- physical operators -----------------------------------------------------

// HashJoin joins two tables on their shared variables (natural join),
// building a hash table on the smaller input. With no shared variables it
// degenerates to a cartesian product. This uncancellable form is kept for
// tests and standalone use; execution goes through hashJoin with the
// request context.
func HashJoin(left, right *Table) *Table {
	out, _ := hashJoin(context.Background(), left, right)
	return out
}

// hashJoin is HashJoin with strided context cancellation in the build and
// probe loops.
func hashJoin(ctx context.Context, left, right *Table) (*Table, error) {
	shared, rightExtra := splitVars(left, right)
	out := &Table{Vars: append(append([]string{}, left.Vars...), rightExtra...)}
	tick := engine.NewTicker(ctx)

	if len(shared) == 0 {
		for _, l := range left.Rows {
			for _, r := range right.Rows {
				if err := tick.Check(); err != nil {
					return nil, err
				}
				out.Rows = append(out.Rows, mergeRows(l, r, nil, right, rightExtra))
			}
		}
		return out, nil
	}

	// Key extractors.
	lIdx := make([]int, len(shared))
	rIdx := make([]int, len(shared))
	for i, v := range shared {
		lIdx[i] = left.VarIndex(v)
		rIdx[i] = right.VarIndex(v)
	}
	// Build on the right (the newly scanned side), probe with the left.
	ht := make(map[string][][]uint32, len(right.Rows))
	keyBuf := make([]byte, 0, len(shared)*4)
	for _, r := range right.Rows {
		if err := tick.Check(); err != nil {
			return nil, err
		}
		keyBuf = keyBuf[:0]
		for _, j := range rIdx {
			v := r[j]
			keyBuf = append(keyBuf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		ht[string(keyBuf)] = append(ht[string(keyBuf)], r)
	}
	for _, l := range left.Rows {
		keyBuf = keyBuf[:0]
		for _, j := range lIdx {
			v := l[j]
			keyBuf = append(keyBuf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		for _, r := range ht[string(keyBuf)] {
			if err := tick.Check(); err != nil {
				return nil, err
			}
			out.Rows = append(out.Rows, mergeRows(l, r, nil, right, rightExtra))
		}
		if err := tick.Check(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func splitVars(left, right *Table) (shared, rightExtra []string) {
	inLeft := map[string]bool{}
	for _, v := range left.Vars {
		inLeft[v] = true
	}
	for _, v := range right.Vars {
		if inLeft[v] {
			shared = append(shared, v)
		} else {
			rightExtra = append(rightExtra, v)
		}
	}
	return
}

func mergeRows(l, r []uint32, _ []int, right *Table, rightExtra []string) []uint32 {
	out := make([]uint32, 0, len(l)+len(rightExtra))
	out = append(out, l...)
	for _, v := range rightExtra {
		out = append(out, r[right.VarIndex(v)])
	}
	return out
}

// indexNestedLoopJoin joins the current table with a base pattern by
// per-row index lookups.
func (e *Engine) indexNestedLoopJoin(ctx context.Context, left *Table, pat query.Pattern) (*Table, error) {
	patVars := PatternVars(pat)
	var shared, extra []string
	for _, v := range patVars {
		if left.VarIndex(v) >= 0 {
			shared = append(shared, v)
		} else {
			extra = append(extra, v)
		}
	}
	out := &Table{Vars: append(append([]string{}, left.Vars...), extra...)}
	lIdx := make([]int, len(shared))
	for i, v := range shared {
		lIdx[i] = left.VarIndex(v)
	}
	extraIdx := make([]int, len(extra))
	for i, v := range extra {
		for j, pv := range patVars {
			if pv == v {
				extraIdx[i] = j
			}
		}
	}
	tick := engine.NewTicker(ctx)
	values := make([]uint32, len(shared))
	for _, l := range left.Rows {
		if err := tick.Check(); err != nil {
			return nil, err
		}
		for i, j := range lIdx {
			values[i] = l[j]
		}
		err := e.scans.ScanBoundEach(ctx, pat, shared, values, func(row []uint32) {
			merged := make([]uint32, 0, len(l)+len(extra))
			merged = append(merged, l...)
			for _, j := range extraIdx {
				merged = append(merged, row[j])
			}
			out.Rows = append(out.Rows, merged)
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// --- Selinger-style join ordering --------------------------------------------

type step struct {
	pattern int
	useINLJ bool
}

type dpState struct {
	cost     float64
	card     float64
	distinct map[string]float64
	steps    []step
}

// crossPenalty discourages cartesian products unless unavoidable.
const crossPenalty = 1e6

// optimize runs a bitmask DP over left-deep plans, minimizing estimated
// total cost (scanned + produced tuples).
func (e *Engine) optimize(patterns []query.Pattern) ([]step, error) {
	n := len(patterns)
	if n == 0 {
		return nil, fmt.Errorf("pairwise: empty pattern list")
	}
	if n > 16 {
		return nil, fmt.Errorf("pairwise: too many patterns (%d)", n)
	}
	best := make(map[int]*dpState, 1<<n)
	for i, pat := range patterns {
		card := e.scans.EstimateCard(pat)
		dist := map[string]float64{}
		for _, v := range PatternVars(pat) {
			dist[v] = math.Min(e.scans.EstimateDistinct(pat, v), card)
		}
		best[1<<i] = &dpState{cost: card, card: card, distinct: dist, steps: []step{{pattern: i}}}
	}
	full := 1<<n - 1
	for mask := 1; mask <= full; mask++ {
		state := best[mask]
		if state == nil {
			continue
		}
		for j := 0; j < n; j++ {
			if mask&(1<<j) != 0 {
				continue
			}
			next := e.extend(state, patterns, j)
			key := mask | 1<<j
			if cur := best[key]; cur == nil || next.cost < cur.cost {
				best[key] = next
			}
		}
	}
	return best[full].steps, nil
}

// extend costs joining pattern j onto the current state, choosing between a
// hash join (scan + build + probe) and an index nested-loop join.
func (e *Engine) extend(s *dpState, patterns []query.Pattern, j int) *dpState {
	pat := patterns[j]
	patVars := PatternVars(pat)
	var shared []string
	for _, v := range patVars {
		if _, ok := s.distinct[v]; ok {
			shared = append(shared, v)
		}
	}
	rCard := e.scans.EstimateCard(pat)

	// Output cardinality: |L||R| / Π max(V(L,v), V(R,v)).
	outCard := s.card * rCard
	for _, v := range shared {
		lv := s.distinct[v]
		rv := math.Min(e.scans.EstimateDistinct(pat, v), rCard)
		d := math.Max(lv, rv)
		if d > 0 {
			outCard /= d
		}
	}
	if len(shared) == 0 {
		outCard = s.card * rCard
	}

	hashCost := rCard + s.card + outCard
	cost := hashCost
	useINLJ := false
	if len(shared) > 0 && e.scans.CanBind(pat, shared) {
		perLookup := e.scans.EstimateBound(pat, shared)
		inljCost := s.card*(1+perLookup) + outCard
		if inljCost < hashCost {
			cost = inljCost
			useINLJ = true
		}
	}
	if len(shared) == 0 {
		cost += crossPenalty
	}

	dist := map[string]float64{}
	for v, d := range s.distinct {
		dist[v] = math.Min(d, outCard)
	}
	for _, v := range patVars {
		rv := math.Min(e.scans.EstimateDistinct(pat, v), outCard)
		if cur, ok := dist[v]; !ok || rv < cur {
			dist[v] = rv
		}
	}
	steps := make([]step, len(s.steps), len(s.steps)+1)
	copy(steps, s.steps)
	steps = append(steps, step{pattern: j, useINLJ: useINLJ})
	return &dpState{cost: s.cost + cost, card: outCard, distinct: dist, steps: steps}
}

var _ engine.Engine = (*Engine)(nil)
