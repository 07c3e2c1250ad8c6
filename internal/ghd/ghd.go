// Package ghd implements generalized hypertree decompositions (GHDs), the
// query-plan representation of the EmptyHeaded engine (§II-C of the paper),
// together with the plan-selection objectives the paper uses:
//
//   - baseline: lowest fractional width, then smallest height (§II-C);
//   - "+GHD" selection pushdown across nodes (§III-B2): among the GHDs that
//     are width-optimal when only non-selection attributes must be covered,
//     choose one with maximal selection depth (the sum of distances from
//     selective relations to the root), so that high-selectivity relations
//     execute earliest in the bottom-up pass.
//
// Beyond the paper, pushdown first prefers the tree with the fewest
// materialized nodes (non-root nodes other than one-edge leaves), and only
// then the deepest selections. A materialized node costs the executor one
// more join and one more trie build, while a one-edge leaf is a view of the
// base trie and the root streams; ranking depth first stacked
// non-selective relations above selective ones (LUBM q8's email node over
// its memberOf node), buying depth with nodes that each cost a build.
//
// Selection attributes (pattern positions bound to constants) are modelled
// as ordinary hypergraph vertices with synthetic names; the caller tells
// Choose which vertices those are.
package ghd

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/hypergraph"
)

// Node is one GHD node: χ(t) is Bag, λ(t) is Edges (indices into the input
// edge list; absorbed edges — edges entirely covered by the bag — are
// included so the executor joins them here).
type Node struct {
	Bag      []string // sorted
	Edges    []int    // sorted pattern indices
	Children []*Node
}

// walk visits the subtree rooted at n pre-order with node depths.
func (n *Node) walk(depth int, fn func(*Node, int)) {
	fn(n, depth)
	for _, c := range n.Children {
		c.walk(depth+1, fn)
	}
}

// signature returns a canonical string for structural deduplication and
// deterministic tie-breaking.
func (n *Node) signature() string {
	var b strings.Builder
	b.WriteByte('[')
	b.WriteString(strings.Join(n.Bag, ","))
	b.WriteByte('|')
	for i, e := range n.Edges {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", e)
	}
	sigs := make([]string, len(n.Children))
	for i, c := range n.Children {
		sigs[i] = c.signature()
	}
	sort.Strings(sigs)
	for _, s := range sigs {
		b.WriteByte(';')
		b.WriteString(s)
	}
	b.WriteByte(']')
	return b.String()
}

// GHD is a complete decomposition with its scoring metrics.
type GHD struct {
	Root *Node
	// Width is the maximum, over nodes, of the fractional edge cover
	// number of the node's bag by the node's edges (all vertices,
	// including selection vertices). The paper reports this as fhw.
	Width float64
	// WidthVars is the same maximum where only non-selection vertices must
	// be covered — the "+GHD" step-1 objective (§III-B2).
	WidthVars float64
	// Height is the maximum node depth (root = 0).
	Height int
	// SelectionDepth is the sum, over selective edges, of the depth of the
	// node holding the edge (§III-B2 step 3).
	SelectionDepth int
	// SelectivePure reports that no node holding a selective relation has
	// a non-selective relation anywhere below it. Pushing selections down
	// means selective nodes sit at the bottom of the tree (executed first
	// in the bottom-up pass); a tree that "gains" selection depth by
	// hoisting one selective relation to the root while sinking the rest
	// violates the optimization's intent and is rejected when a pure
	// candidate exists.
	SelectivePure bool
	// NumNodes counts the tree's nodes.
	NumNodes int
	// Materialized counts the non-root nodes that are not one-edge leaves:
	// the nodes whose result the executor builds by a join. The root
	// streams and a one-edge leaf is a view of the base trie.
	Materialized int
}

// String renders the decomposition tree compactly for logs and golden tests.
func (g *GHD) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "GHD{width=%.2f, height=%d, seldepth=%d}\n", g.Width, g.Height, g.SelectionDepth)
	var render func(n *Node, indent string)
	render = func(n *Node, indent string) {
		fmt.Fprintf(&b, "%s[%s] edges=%v\n", indent, strings.Join(n.Bag, " "), n.Edges)
		for _, c := range n.Children {
			render(c, indent+"  ")
		}
	}
	render(g.Root, "")
	return b.String()
}

// Options configures GHD selection.
type Options struct {
	// PushdownAcrossNodes enables the paper's "+GHD" optimization: the
	// step-1 width objective ignores selection vertices, and selection
	// depth is maximized before height is minimized.
	PushdownAcrossNodes bool
	// MaxCandidates caps the number of decompositions considered per
	// subproblem; 0 means the default. Benchmark queries are small enough
	// that the cap never binds.
	MaxCandidates int
}

const defaultMaxCandidates = 4096

// Choose enumerates GHDs of the query hypergraph and returns the best one
// under the configured objective. selVerts identifies selection vertices.
// It returns an error only for degenerate inputs (no edges).
func Choose(edges []hypergraph.Edge, selVerts map[string]bool, opts Options) (*GHD, error) {
	cands, err := enumerate(edges, opts)
	if err != nil {
		return nil, err
	}
	sc := newScorer(edges, selVerts)
	best := (*GHD)(nil)
	for _, root := range cands {
		g, err := sc.score(root)
		if err != nil {
			return nil, err
		}
		if best == nil || less(g, best, opts.PushdownAcrossNodes) {
			best = g
		}
	}
	return best, nil
}

const widthEps = 1e-6

// less orders candidates best-first under the paper's objectives.
func less(a, b *GHD, pushdown bool) bool {
	if pushdown {
		// §III-B2: min width over non-selection vertices, then selective
		// purity, then (beyond the paper) fewest materialized nodes, then
		// max selection depth, then min height. Depth ranked before the
		// node count would stack relations into chains whose every node
		// costs a join and a trie build; a one-edge leaf costs neither.
		if math.Abs(a.WidthVars-b.WidthVars) > widthEps {
			return a.WidthVars < b.WidthVars
		}
		if a.SelectivePure != b.SelectivePure {
			return a.SelectivePure
		}
		if a.Materialized != b.Materialized {
			return a.Materialized < b.Materialized
		}
		if a.SelectionDepth != b.SelectionDepth {
			return a.SelectionDepth > b.SelectionDepth
		}
		if a.Height != b.Height {
			return a.Height < b.Height
		}
	} else {
		// §II-C: min width (all vertices), then min height.
		if math.Abs(a.Width-b.Width) > widthEps {
			return a.Width < b.Width
		}
		if a.Height != b.Height {
			return a.Height < b.Height
		}
	}
	if a.NumNodes != b.NumNodes {
		return a.NumNodes < b.NumNodes
	}
	return a.Root.signature() < b.Root.signature()
}

// scorer computes GHD metrics with memoized cover LPs (the same node shapes
// recur across thousands of candidate trees).
type scorer struct {
	edges    []hypergraph.Edge
	selVerts map[string]bool
	cache    map[string][2]float64 // node key -> {width, widthVars}
	errs     map[string]error
}

func newScorer(edges []hypergraph.Edge, selVerts map[string]bool) *scorer {
	return &scorer{edges: edges, selVerts: selVerts, cache: map[string][2]float64{}, errs: map[string]error{}}
}

func (sc *scorer) nodeWidths(n *Node) (float64, float64, error) {
	key := strings.Join(n.Bag, ",") + "|" + fmt.Sprint(n.Edges)
	if w, ok := sc.cache[key]; ok {
		return w[0], w[1], sc.errs[key]
	}
	nodeEdges := make([]hypergraph.Edge, len(n.Edges))
	for i, ei := range n.Edges {
		nodeEdges[i] = sc.edges[ei]
	}
	w, err := hypergraph.FractionalCoverNumber(n.Bag, nodeEdges)
	var varsOnly []string
	for _, v := range n.Bag {
		if !sc.selVerts[v] {
			varsOnly = append(varsOnly, v)
		}
	}
	wv, err2 := hypergraph.FractionalCoverNumber(varsOnly, nodeEdges)
	if err == nil {
		err = err2
	}
	sc.cache[key] = [2]float64{w, wv}
	if err != nil {
		sc.errs[key] = err
	}
	return w, wv, err
}

func (sc *scorer) edgeSelective(ei int) bool {
	for _, v := range sc.edges[ei].Vertices {
		if sc.selVerts[v] {
			return true
		}
	}
	return false
}

func (sc *scorer) score(root *Node) (*GHD, error) {
	g := &GHD{Root: root, Width: 0, WidthVars: 0, SelectivePure: true}
	var firstErr error
	root.walk(0, func(n *Node, depth int) {
		if depth > g.Height {
			g.Height = depth
		}
		g.NumNodes++
		if depth > 0 && (len(n.Children) != 0 || len(n.Edges) != 1) {
			g.Materialized++
		}
		for _, ei := range n.Edges {
			if sc.edgeSelective(ei) {
				g.SelectionDepth += depth
			}
		}
		w, wv, err := sc.nodeWidths(n)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if w > g.Width {
			g.Width = w
		}
		if wv > g.WidthVars {
			g.WidthVars = wv
		}
	})
	// Purity: a node holding a selective relation must not have a
	// non-selective relation strictly below it.
	var pure func(n *Node) (subSel, subNonSel bool)
	pure = func(n *Node) (bool, bool) {
		ownSel, subNonSel := false, false
		for _, ei := range n.Edges {
			if sc.edgeSelective(ei) {
				ownSel = true
			} else {
				subNonSel = true
			}
		}
		subSel := ownSel
		belowNonSel := false
		for _, c := range n.Children {
			cs, cn := pure(c)
			subSel = subSel || cs
			belowNonSel = belowNonSel || cn
		}
		if ownSel && belowNonSel {
			g.SelectivePure = false
		}
		return subSel, subNonSel || belowNonSel
	}
	pure(root)
	return g, firstErr
}

// --- enumeration -----------------------------------------------------------

type enumerator struct {
	all  []hypergraph.Edge
	memo map[memoKey][]*Node
	cap  int
}

type memoKey struct {
	mask  uint32
	iface string
}

// enumerate produces candidate roots for the full edge set.
func enumerate(edges []hypergraph.Edge, opts Options) ([]*Node, error) {
	if len(edges) == 0 {
		return nil, fmt.Errorf("ghd: no edges to decompose")
	}
	if len(edges) > 30 {
		return nil, fmt.Errorf("ghd: too many relations (%d) for exhaustive decomposition", len(edges))
	}
	capN := opts.MaxCandidates
	if capN <= 0 {
		capN = defaultMaxCandidates
	}
	e := &enumerator{all: edges, memo: map[memoKey][]*Node{}, cap: capN}
	idx := make([]int, len(edges))
	for i := range idx {
		idx[i] = i
	}
	roots := e.decompose(idx, nil)
	if len(roots) == 0 {
		return nil, fmt.Errorf("ghd: no valid decomposition found")
	}
	return roots, nil
}

func maskOf(edges []int) uint32 {
	var m uint32
	for _, e := range edges {
		m |= 1 << uint(e)
	}
	return m
}

// decompose returns candidate subtree roots covering exactly the given
// edges, whose root bag must contain every vertex in iface.
func (e *enumerator) decompose(edges []int, iface []string) []*Node {
	key := memoKey{mask: maskOf(edges), iface: strings.Join(iface, ",")}
	if cached, ok := e.memo[key]; ok {
		return cached
	}
	// Install a placeholder to guard against (impossible) recursion on the
	// same key; the subproblem always strictly shrinks, so this is defensive.
	e.memo[key] = nil

	var out []*Node
	seen := map[string]bool{}
	add := func(n *Node) {
		if len(out) >= e.cap {
			return
		}
		sig := n.signature()
		if !seen[sig] {
			seen[sig] = true
			out = append(out, n)
		}
	}

	for mask := 1; mask < 1<<uint(len(edges)); mask++ {
		var lambda []int
		for i, ei := range edges {
			if mask&(1<<uint(i)) != 0 {
				lambda = append(lambda, ei)
			}
		}
		bag := e.vertexUnion(lambda)
		if !containsAll(bag, iface) {
			continue
		}
		bagSet := toSet(bag)
		// Absorb every remaining edge fully covered by the bag.
		nodeEdges := append([]int(nil), lambda...)
		var rest []int
		lambdaSet := toIntSet(lambda)
		for _, ei := range edges {
			if lambdaSet[ei] {
				continue
			}
			if coveredBy(e.all[ei].Vertices, bagSet) {
				nodeEdges = append(nodeEdges, ei)
			} else {
				rest = append(rest, ei)
			}
		}
		sort.Ints(nodeEdges)
		comps := hypergraph.Connected(rest, e.all, bagSet)
		// Components may be decomposed as independent children or grouped
		// into a shared child subtree. Grouping is what produces the
		// "across nodes" chains of Figure 3, where selective relations sit
		// below non-selective ones even though they would be separate
		// components under a star.
		for _, grouping := range partitions(len(comps)) {
			options := make([][]*Node, len(grouping))
			feasible := true
			for gi, group := range grouping {
				var groupEdges []int
				for _, ci := range group {
					groupEdges = append(groupEdges, comps[ci]...)
				}
				sort.Ints(groupEdges)
				childIface := intersectVars(e.vertexUnion(groupEdges), bagSet)
				options[gi] = e.decompose(groupEdges, childIface)
				if len(options[gi]) == 0 {
					feasible = false
					break
				}
			}
			if !feasible {
				continue
			}
			// Cartesian product of child options.
			e.product(options, 0, make([]*Node, 0, len(grouping)), func(children []*Node) {
				n := &Node{Bag: bag, Edges: nodeEdges}
				n.Children = append([]*Node(nil), children...)
				add(n)
			})
			if len(out) >= e.cap {
				break
			}
		}
		if len(out) >= e.cap {
			break
		}
	}
	e.memo[key] = out
	return out
}

// partitions enumerates the set partitions of {0..n-1} (n is the number of
// connected components; Bell(n) results). n=0 yields one empty partition.
func partitions(n int) [][][]int {
	if n == 0 {
		return [][][]int{{}}
	}
	var out [][][]int
	var rec func(i int, groups [][]int)
	rec = func(i int, groups [][]int) {
		if i == n {
			cp := make([][]int, len(groups))
			for gi, g := range groups {
				cp[gi] = append([]int(nil), g...)
			}
			out = append(out, cp)
			return
		}
		for gi := range groups {
			groups[gi] = append(groups[gi], i)
			rec(i+1, groups)
			groups[gi] = groups[gi][:len(groups[gi])-1]
		}
		rec(i+1, append(groups, []int{i}))
	}
	rec(0, nil)
	return out
}

func (e *enumerator) product(options [][]*Node, i int, acc []*Node, emit func([]*Node)) {
	if i == len(options) {
		emit(acc)
		return
	}
	for _, opt := range options[i] {
		e.product(options, i+1, append(acc, opt), emit)
	}
}

func (e *enumerator) vertexUnion(edges []int) []string {
	seen := map[string]bool{}
	var out []string
	for _, ei := range edges {
		for _, v := range e.all[ei].Vertices {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	sort.Strings(out)
	return out
}

func toSet(vs []string) map[string]bool {
	m := make(map[string]bool, len(vs))
	for _, v := range vs {
		m[v] = true
	}
	return m
}

func toIntSet(vs []int) map[int]bool {
	m := make(map[int]bool, len(vs))
	for _, v := range vs {
		m[v] = true
	}
	return m
}

func containsAll(sorted []string, want []string) bool {
	set := toSet(sorted)
	for _, v := range want {
		if !set[v] {
			return false
		}
	}
	return true
}

func coveredBy(vs []string, bag map[string]bool) bool {
	for _, v := range vs {
		if !bag[v] {
			return false
		}
	}
	return true
}

func intersectVars(vs []string, set map[string]bool) []string {
	var out []string
	for _, v := range vs {
		if set[v] {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// --- validity ---------------------------------------------------------------

// Validate checks the four GHD properties of Definition 1 plus the
// edge-partition invariant our construction maintains (every input edge
// appears in exactly one node's edge list). Used by tests.
func Validate(g *GHD, edges []hypergraph.Edge) error {
	// Property 1: every edge's vertices inside some bag; and partition.
	assigned := map[int]int{}
	g.Root.walk(0, func(n *Node, _ int) {
		bag := toSet(n.Bag)
		for _, ei := range n.Edges {
			assigned[ei]++
			if !coveredBy(edges[ei].Vertices, bag) {
				// Flagged below via count check hack: record as -1.
				assigned[ei] = -1 << 20
			}
		}
	})
	for i := range edges {
		if assigned[i] != 1 {
			return fmt.Errorf("ghd: edge %d assigned %d times or uncovered", i, assigned[i])
		}
	}
	// Property 2: running intersection — for every vertex, the nodes whose
	// bags contain it form a connected subtree.
	type nodeInfo struct {
		node   *Node
		parent *Node
	}
	var nodes []nodeInfo
	var collect func(n, parent *Node)
	collect = func(n, parent *Node) {
		nodes = append(nodes, nodeInfo{n, parent})
		for _, c := range n.Children {
			collect(c, n)
		}
	}
	collect(g.Root, nil)
	vertices := map[string]bool{}
	for _, e := range edges {
		for _, v := range e.Vertices {
			vertices[v] = true
		}
	}
	for v := range vertices {
		// Count nodes containing v whose parent does not contain v: must
		// be exactly one (the top of v's subtree) for connectivity.
		tops := 0
		present := 0
		for _, ni := range nodes {
			if !toSet(ni.node.Bag)[v] {
				continue
			}
			present++
			if ni.parent == nil || !toSet(ni.parent.Bag)[v] {
				tops++
			}
		}
		if present > 0 && tops != 1 {
			return fmt.Errorf("ghd: vertex %q induces a disconnected subtree (%d tops)", v, tops)
		}
	}
	// Properties 3 & 4: χ(t) ⊆ ∪λ(t). Our bags are exactly the union, but
	// check anyway.
	var badBag error
	g.Root.walk(0, func(n *Node, _ int) {
		cover := map[string]bool{}
		for _, ei := range n.Edges {
			for _, v := range edges[ei].Vertices {
				cover[v] = true
			}
		}
		for _, v := range n.Bag {
			if !cover[v] && badBag == nil {
				badBag = fmt.Errorf("ghd: bag vertex %q not covered by node edges", v)
			}
		}
	})
	return badBag
}
