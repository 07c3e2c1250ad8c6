// Package exec executes physical plans produced by internal/plan using the
// generic worst-case optimal join algorithm (Algorithm 1 of the paper) over
// tries.
//
// Execution follows §II-C: the GHD is traversed bottom-up, running the
// generic join inside every node and materializing each non-root node's
// result as a trie that its parent joins like any other relation; then a
// final enumeration pass joins the root's relations with all materialized
// node results to produce output tuples.
//
// Each generic join (join.go) binds one attribute at a time. Which inputs
// take part at each attribute is resolved once per join, with trie levels
// matched to attributes by index, not by name. Variable attributes are
// intersected by leapfrog triejoin over the tries' seek iterators, except
// the last attribute of the order: no descent follows a match there, so
// when every participating trie is at its leaf level the leaf sets are
// intersected whole — read straight from the trie's value arena where the
// level is all uint arrays — by the layout-specialised kernels of
// internal/set (§II-A2), which alone choose between merging, probing and
// galloping by the sets' layouts and sizes, and each result value is
// emitted. Usually all but one of those leaves stay the same across the
// penultimate attribute's loop (the triangle's ?x in-neighbours while ?y
// varies), and then the last two attributes run as one fused tail
// (tail.go): the intersection of the fixed leaves is hoisted out of the
// loop, kept in a pooled bitmap (set.Marks), and the varying leaves of a
// block of the loop's matches are read in a batch and probed into it —
// loop-invariant code motion, and §III-A's choice of layout by how a set
// is used, for a set intersected over and over.
//
// Beyond the paper, a plan that keeps its BGP's automorphism group
// (plan.Plan.Sym) has its final join break the symmetry (sym.go): rotating
// the triangle ?x→?y→?z→?x gives the same pattern, so instead of finding
// each directed 3-cycle once per rotation the join enumerates only the
// bindings whose orbit members sit at or above the first one — the
// leapfrog seeks from that bound and the last attribute keeps only the
// members at or above it — and emits each least binding with its distinct
// images. Every solution comes out exactly once; a solution's images come
// out together.
//
// The enumerator is a streaming generator: Open returns an engine.Cursor
// that yields output rows as the final join produces them, so consumers
// (the query server above all) hold O(batch) rows in memory, see their
// first row before enumeration finishes, and can abandon a result early by
// closing the cursor — which cancels the producing goroutine within one
// cancellation stride. RunOpts materializes the stream for callers that
// want the whole result.
//
// Open takes the plan, the store and the per-execution engine.ExecOpts
// (context, row cap and offset, workers), nothing else: the plan decides
// what runs, the set layout policy of every trie included (Plan.Policy).
// So an engine over this executor is a compiler plus exec.Open.
package exec

import (
	"context"
	"fmt"
	"io"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/set"
	"repro/internal/store"
	"repro/internal/trie"
)

// Result holds encoded result rows in the plan's SELECT order. It is the
// shared engine.Result representation.
type Result = engine.Result

// RunOpts executes p with execution options and materializes the result
// (a Collect over Open, preserved for tests and benchmarks).
func RunOpts(p *plan.Plan, st *store.Store, opts engine.ExecOpts) (*Result, error) {
	return engine.Collect(Open(p, st, opts))
}

// Open starts executing p and returns the cursor over its output rows. Every
// trie it reads or builds has p.Policy's set layouts. The bottom-up
// materialization pass and the final enumeration both run on the cursor's
// producer goroutine, so Open itself returns immediately; plan errors
// surface from the first Next. A pre-cancelled Ctx fails fast.
//
// opts.Workers > 1 parallelizes the final enumeration across goroutines by
// partitioning the first variable's domain (the paper's engine ran on 48
// cores). The bottom-up pass stays sequential — node results are shared.
// Row order is deterministic regardless: workers stream their partitions
// in worker order.
func Open(p *plan.Plan, st *store.Store, opts engine.ExecOpts) (engine.Cursor, error) {
	if opts.Ctx != nil {
		if err := opts.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	cur := engine.NewGenerator(opts.Ctx, p.Select, func(ctx context.Context, out *engine.Emitter) error {
		return stream(p, st, opts, ctx, out)
	})
	return engine.Limit(cur, opts.Offset, opts.MaxRows), nil
}

// stream is the producer: bottom-up pass, then the final enumeration
// projecting each binding straight into out's current block. ctx is the
// generator's context — cancelled both by the caller's Ctx and by the
// consumer closing the cursor — so every phase, including node
// materialization, stops cooperatively.
func stream(p *plan.Plan, st *store.Store, opts engine.ExecOpts, ctx context.Context, out *engine.Emitter) error {
	if p.Empty {
		return nil
	}
	e := &executor{st: st, policy: p.Policy, ctx: ctx}
	inputs, attrs, err := e.prepare(p)
	if err != nil || e.dead {
		return err
	}
	attrIdx := map[string]int{}
	for i, a := range attrs {
		attrIdx[a.Name] = i
	}
	proj := make([]int, len(p.Select))
	for i, v := range p.Select {
		pos, ok := attrIdx[v]
		if !ok {
			return fmt.Errorf("exec: projected variable %q not produced by plan", v)
		}
		proj[i] = pos
	}

	project := func(dst, binding []uint32) {
		for i, pos := range proj {
			dst[i] = binding[pos]
		}
	}
	// Streaming dedup for DISTINCT: applied in enumeration order, before
	// the cursor-layer offset/cap, so a capped distinct result is exactly
	// the first MaxRows distinct rows.
	var seen *engine.RowSet
	if p.Distinct {
		seen = &engine.RowSet{}
	}

	workers := opts.Workers
	fv := firstVarIdx(attrs)
	if fv < 0 {
		workers = 1 // no variable to partition on (fully constant query)
	}
	sym := newSymmetry(p)
	if workers <= 1 {
		j := newJoiner(attrs, inputs)
		j.ctx = ctx
		j.sym = sym
		return j.run(func(binding []uint32) error {
			row := out.Slot()
			project(row, binding)
			if seen != nil && !seen.Add(row) {
				return nil
			}
			return out.Push()
		})
	}

	// Fan the final enumeration out over workers goroutines, each a
	// generator of its own enumerating one residue class of the first
	// variable's domain, and stream their blocks in worker order — a fixed
	// concatenation order, so parallel results stay deterministic. Later
	// workers enumerate concurrently while earlier ones drain, running at
	// most a generator's channel depth ahead. Each worker gets private
	// descent state over the shared immutable tries (resolved here, before
	// the goroutines start, so the lazy trie caches are not raced); the
	// clones share the level indices resolved once here. Under a symmetry
	// the partition is of the least image's first variable, which is
	// unique, so a solution and its images come from one worker.
	indexLevels(attrs, inputs)
	curs := make([]engine.Cursor, workers)
	for w := range curs {
		j := newJoiner(attrs, cloneInputs(inputs))
		j.filterAt = fv
		j.filterMod = uint32(workers)
		j.filterRes = uint32(w)
		j.sym = sym
		curs[w] = engine.NewGenerator(ctx, p.Select, func(wctx context.Context, wout *engine.Emitter) error {
			j.ctx = wctx
			return j.run(func(binding []uint32) error {
				project(wout.Slot(), binding)
				return wout.Push()
			})
		})
		defer curs[w].Close()
	}
	var blk engine.Block
	for _, cur := range curs {
		for {
			err := cur.NextBlock(&blk)
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			for i := 0; i < blk.Len(); i++ {
				row := blk.Row(i)
				if seen != nil && !seen.Add(row) {
					continue
				}
				if err := out.Emit(row); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// prepare runs the bottom-up pass and assembles the final enumeration's
// inputs and attribute order. When it leaves e.dead set, a fully constant
// node failed to match: the result is empty and nothing is returned.
func (e *executor) prepare(p *plan.Plan) ([]*input, []plan.Attr, error) {
	// The root is streamed (its generic join feeds the output enumeration
	// directly) when no top-down pass is necessary: single-node plans, and
	// plans whose root bag covers every query variable (children act as
	// pure semijoin filters; §II-C: "if necessary, we traverse the GHD
	// top-down"). Otherwise the root's result is materialized like any
	// other node, which is the paper's default two-phase execution.
	streamRoot := len(p.Root.Children) == 0 || p.RootCoversAllVars()

	// Bottom-up pass: materialize every non-root node.
	for _, child := range p.Root.Children {
		if _, err := e.materialize(child); err != nil {
			return nil, nil, err
		}
		if e.dead {
			return nil, nil, nil
		}
	}
	if !streamRoot {
		if _, err := e.materialize(p.Root); err != nil {
			return nil, nil, err
		}
		if e.dead {
			return nil, nil, nil
		}
	}

	// Final pass: join the root (its raw relations when streaming, its
	// materialized result otherwise) with every materialized node result.
	return e.finalInputs(p, streamRoot)
}

// firstVarIdx returns the index of the first non-selection attribute, or -1.
func firstVarIdx(attrs []plan.Attr) int {
	for i, a := range attrs {
		if !a.IsSel {
			return i
		}
	}
	return -1
}

type executor struct {
	st     *store.Store
	policy set.Policy
	// ctx, when non-nil, cancels the bottom-up materialization joins.
	ctx context.Context
	// results maps plan nodes to their materialized result tries. A nil
	// entry means the node is "neutral": it has no variables and its
	// (fully constant) patterns matched, so it constrains nothing.
	results map[*plan.Node]*trie.Trie
	// dead is set when a zero-variable node failed to match; the whole
	// query result is empty.
	dead bool
}

// materializeHook, when set by a test, is called with each node whose
// result a join builds (not a relationView).
var materializeHook func(*plan.Node)

// materialize computes the node's result (recursively materializing its
// children first) and caches it. A leaf node that is one relation, its
// selections (if any) first in trie order, is answered as a zero-copy view
// into the base trie — the covering-index effect of §IV-B ("EmptyHeaded is
// able to provide covering indexes ... using only our trie data structure
// and the attribute order").
func (e *executor) materialize(n *plan.Node) (*trie.Trie, error) {
	if e.results == nil {
		e.results = map[*plan.Node]*trie.Trie{}
	}
	if t, ok := e.results[n]; ok {
		return t, nil
	}
	if t, ok, err := e.relationView(n); err != nil {
		return nil, err
	} else if ok {
		e.results[n] = t
		return t, nil
	}
	if materializeHook != nil {
		materializeHook(n)
	}
	inputs, err := e.nodeInputs(n)
	if err != nil {
		return nil, err
	}
	for _, child := range n.Children {
		ct, err := e.materialize(child)
		if err != nil {
			return nil, err
		}
		if e.dead {
			return nil, nil
		}
		if ct != nil {
			inputs = append(inputs, newInput(ct, varAttrs(child.Vars)))
		}
	}

	// Positions of the node's output vars within its attr order.
	varPos := make([]int, 0, len(n.Vars))
	for i, a := range n.Attrs {
		if !a.IsSel {
			varPos = append(varPos, i)
		}
	}
	var rows [][]uint32
	matched := false
	j := newJoiner(n.Attrs, inputs)
	j.ctx = e.ctx
	err = j.run(func(binding []uint32) error {
		matched = true
		if len(varPos) == 0 {
			return nil
		}
		row := make([]uint32, len(varPos))
		for i, pos := range varPos {
			row[i] = binding[pos]
		}
		rows = append(rows, row)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(n.Vars) == 0 {
		// Fully-constant node: either neutral (matched) or the whole
		// query is empty.
		if !matched {
			e.dead = true
		}
		e.results[n] = nil
		return nil, nil
	}
	t := trie.BuildFromRows(rows, len(n.Vars), e.policy)
	e.results[n] = t
	return t, nil
}

// relationView answers a leaf node holding one relation whose trie order
// is [selections..., vars...], selections possibly none, by descending the
// base trie with the selection constants and viewing the reached subtree. Returns ok=false when the node does not have that shape
// (multiple relations, children, a repeated variable, or selections not
// forming a trie prefix — e.g. with AttributeReorder off).
func (e *executor) relationView(n *plan.Node) (*trie.Trie, bool, error) {
	if len(n.Children) != 0 || len(n.Rels) != 1 || len(n.Vars) == 0 {
		return nil, false, nil
	}
	ref := n.Rels[0]
	k := 0
	for k < len(ref.Levels) && ref.Levels[k].IsSel {
		k++
	}
	// The remaining levels must be exactly the node's variables, in order
	// (repeated variables within the pattern disqualify the shortcut).
	if len(ref.Levels)-k != len(n.Vars) {
		return nil, false, nil
	}
	for i, a := range ref.Levels[k:] {
		if a.IsSel || a.Name != n.Vars[i] {
			return nil, false, nil
		}
	}
	t, err := e.relTrie(ref)
	if err != nil {
		return nil, false, err
	}
	node := t.Root()
	for i := 0; i < k; i++ {
		child, ok := node.ChildByValue(ref.Levels[i].Value)
		if !ok {
			return trie.BuildFromRows(nil, len(n.Vars), e.policy), true, nil
		}
		node = child
	}
	return trie.Sub(node, len(n.Vars)), true, nil
}

// nodeInputs resolves the node's own relations to trie inputs.
func (e *executor) nodeInputs(n *plan.Node) ([]*input, error) {
	var out []*input
	for _, ref := range n.Rels {
		t, err := e.relTrie(ref)
		if err != nil {
			return nil, err
		}
		out = append(out, newInput(t, ref.Levels))
	}
	return out, nil
}

// relTrie picks the trie (and column order) backing a relation reference.
func (e *executor) relTrie(ref plan.RelRef) (*trie.Trie, error) {
	if ref.UseTriples {
		var perm [3]int
		for i, a := range ref.Levels {
			perm[i] = a.Pos
		}
		return e.st.TripleTrie(perm, e.policy), nil
	}
	rel := e.st.Relation(ref.Pred)
	if rel == nil {
		// The planner short-circuits missing predicates; defensive.
		return trie.BuildFromRows(nil, len(ref.Levels), e.policy), nil
	}
	if len(ref.Levels) != 2 {
		return nil, fmt.Errorf("exec: vertically partitioned relation with %d levels", len(ref.Levels))
	}
	if ref.Levels[0].Pos == 0 {
		return rel.TrieSO(e.policy), nil
	}
	return rel.TrieOS(e.policy), nil
}

// finalInputs assembles the final enumeration join: the root (raw
// relations when streaming, materialized result otherwise) and all
// materialized node results. The returned attribute order is the plan's
// global order restricted to the participating attributes.
func (e *executor) finalInputs(p *plan.Plan, streamRoot bool) ([]*input, []plan.Attr, error) {
	var inputs []*input
	attrByName := map[string]plan.Attr{}
	if streamRoot {
		var err error
		inputs, err = e.nodeInputs(p.Root)
		if err != nil {
			return nil, nil, err
		}
		for _, a := range p.Root.Attrs {
			attrByName[a.Name] = a
		}
	} else {
		t, ok := e.results[p.Root]
		if !ok {
			return nil, nil, fmt.Errorf("exec: root result missing")
		}
		if t != nil { // nil = neutral zero-variable root
			inputs = append(inputs, newInput(t, varAttrs(p.Root.Vars)))
			for _, v := range p.Root.Vars {
				attrByName[v] = plan.Attr{Name: v}
			}
		}
	}

	var walk func(n *plan.Node) error
	walk = func(n *plan.Node) error {
		for _, child := range n.Children {
			t, ok := e.results[child]
			if !ok {
				return fmt.Errorf("exec: child result missing (bottom-up pass skipped?)")
			}
			if t != nil { // nil = neutral zero-variable node
				inputs = append(inputs, newInput(t, varAttrs(child.Vars)))
				for _, v := range child.Vars {
					if _, ok := attrByName[v]; !ok {
						attrByName[v] = plan.Attr{Name: v}
					}
				}
			}
			if err := walk(child); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(p.Root); err != nil {
		return nil, nil, err
	}

	var attrs []plan.Attr
	for _, name := range p.GlobalOrder {
		if a, ok := attrByName[name]; ok {
			attrs = append(attrs, a)
		}
	}
	return inputs, attrs, nil
}

func varAttrs(vars []string) []plan.Attr {
	out := make([]plan.Attr, len(vars))
	for i, v := range vars {
		out[i] = plan.Attr{Name: v}
	}
	return out
}
