// Package plan compiles a basic graph pattern into a physical plan for the
// worst-case optimal executor (internal/exec): it builds the query
// hypergraph (selection positions become synthetic selection vertices),
// selects a GHD via internal/ghd, derives the global attribute order (BFS
// over the GHD with the §III-B1 selection-first heuristic when enabled) and
// chooses trie level orders for every relation. The plan also records the
// set layout policy it runs with (Plan.Policy, from Options.Layout), so a
// compiled plan says everything internal/exec needs: engines hand it to
// exec as it is. CompileFlat runs the same steps over one node holding
// every pattern, in natural attribute order and with uint-array layouts:
// the LogicBlox model's flat plan.
//
// The paper's §III-C pipelining, which streams one root child instead of
// materializing it, is not implemented: no LUBM plan that auto serves
// qualifies. Where a plan did qualify it went both ways: the barbell
// drained slower streamed, LUBM q4 under the -GHD ablation faster.
//
// Beyond the paper, it also finds the BGP's automorphism group (sym.go):
// the permutations of its variables that map its set of triple patterns
// onto itself, as rotating ?x→?y→?z→?x does for the triangle. When the root
// binds every variable, every predicate is a constant and the group has 2 to
// maxSym members, the plan keeps it (Plan.Sym) and the executor enumerates
// one binding per orbit and emits its images. A constant-holding pattern
// maps only to itself, so the group never depends on constant values and
// Bind stays equal to Compile. No LUBM query has a non-trivial group.
package plan

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/dict"
	"repro/internal/ghd"
	"repro/internal/hypergraph"
	"repro/internal/query"
	"repro/internal/set"
	"repro/internal/store"
)

// Options toggles the paper's selection pushdowns and chooses the plan's
// set layout policy. The zero value is the fully un-optimized
// configuration but for Layout, whose zero value is the paper's static
// rule (set.PolicyAuto).
type Options struct {
	// Layout is the set layout policy the plan runs with (Plan.Policy):
	// set.PolicyAdaptive is the layout optimizer the engines serve,
	// set.PolicyUintOnly the "-Layout" ablation.
	Layout set.Policy
	// AttributeReorder enables pushing selections down within GHD nodes
	// (§III-B1): selection vertices go first in the global attribute order
	// so equality selections become O(1)/O(log n) probes on the first trie
	// level instead of per-tuple probes on deep levels.
	AttributeReorder bool
	// GHDPushdown enables pushing selections down across GHD nodes
	// (§III-B2).
	GHDPushdown bool
}

// AllOptimizations is the fully optimized EmptyHeaded configuration, the
// one core.AllOptimizations compiles.
var AllOptimizations = Options{
	Layout:           set.PolicyAdaptive,
	AttributeReorder: true,
	GHDPushdown:      true,
}

// Attr is one attribute processed by the executor: either a query variable
// or a selection vertex bound to an encoded constant.
type Attr struct {
	// Name is the variable name, or a synthetic "$<pattern><pos>" name for
	// selections.
	Name string
	// IsSel marks selection vertices.
	IsSel bool
	// Value is the encoded constant (valid when IsSel).
	Value uint32
	// Pos is the triple position this attribute occupies in its pattern:
	// 0=subject, 1=predicate, 2=object. Only meaningful inside RelRef
	// levels.
	Pos int
}

// RelRef is one relation instance inside a GHD node, with its trie level
// order resolved.
type RelRef struct {
	// PatternIdx indexes the originating pattern in the BGP.
	PatternIdx int
	// UseTriples selects the full triple table (variable predicate);
	// otherwise Pred names the vertically partitioned relation.
	UseTriples bool
	Pred       dict.ID
	// Levels lists the relation's attributes in trie level order (sorted
	// by the node's processing order).
	Levels []Attr
}

// Node is one physical GHD node.
type Node struct {
	// Attrs is the node's processing order: its bag sorted by the global
	// attribute order (selection vertices included).
	Attrs []Attr
	// Vars are the non-selection attribute names of Attrs, in order.
	Vars []string
	// Rels are the relations joined at this node (λ plus absorbed edges).
	Rels []RelRef
	// Children are the node's GHD children.
	Children []*Node
	// Interface lists the variables shared with the parent, in global
	// order (a prefix of Vars by construction).
	Interface []string
}

// Plan is a compiled query.
type Plan struct {
	// Empty is set when a constant in the query does not occur in the
	// dictionary, so the result is necessarily empty and execution is
	// skipped.
	Empty bool
	// Root is the physical GHD root.
	Root *Node
	// GlobalOrder is the global attribute order (selection vertices and
	// variables).
	GlobalOrder []string
	// Select is the output projection (variable names).
	Select []string
	// Distinct requests duplicate elimination.
	Distinct bool
	// Decomposition is the chosen GHD, kept for inspection and the ghdviz
	// tool.
	Decomposition *ghd.GHD
	// Policy is the set layout policy of every trie the executor reads or
	// builds for the plan: Options.Layout for Compile, uint arrays for
	// CompileFlat. Only Compile, CompileFlat and Bind write it.
	Policy set.Policy
	// Class is the engine class the plan was compiled for. The auto router
	// (internal/engines) sets it for its ledger and to keep the pure-wcoj
	// class sequential; plans compiled by a static engine leave it zero.
	Class EngineClass
	// Sym is the BGP's automorphism group when the plan keeps one (nil
	// otherwise): every element, identity first, as a permutation of
	// Root.Attrs. A binding t's image under perm is u[i] = t[perm[i]];
	// selection attributes are fixed points. See SymBound for the bound the
	// executor derives from it.
	Sym [][]int
}

// Bind returns a copy of the template t with its selection constants taken
// from q: every selection attribute, in node attribute lists and relation
// level lists alike, gets the dictionary id of q's constant at that
// attribute's (pattern, position). t must be non-empty and q must have its
// constant-lifted shape (query.Shape). A constant absent from d makes the
// result an empty plan, as compiling q would. t is not modified.
//
// Binding equals compiling q because compilation is value-independent:
// constants are read only for their dictionary id and for absence, size
// estimates use per-predicate statistics, and selection vertices are named
// by position. TestBindEqualsCompile in internal/engines pins this.
func Bind(t *Plan, q *query.BGP, d *dict.Dictionary) *Plan {
	ids := make([][3]dict.ID, len(q.Patterns))
	for i, pat := range q.Patterns {
		for pos, n := range []query.Node{pat.S, pat.P, pat.O} {
			if n.IsVar || pos == 1 {
				continue // predicates are part of the shape, not bound
			}
			id, ok := d.Lookup(n.Term)
			if !ok {
				return &Plan{Empty: true, Select: t.Select, Distinct: t.Distinct, Policy: t.Policy, Class: t.Class}
			}
			ids[i][pos] = id
		}
	}
	p := *t
	p.Root = bindNode(t.Root, ids)
	return &p
}

// bindNode copies n and its subtree, substituting selection values.
func bindNode(n *Node, ids [][3]dict.ID) *Node {
	c := *n
	c.Rels = slices.Clone(n.Rels)
	for i := range c.Rels {
		r := &c.Rels[i]
		r.Levels = slices.Clone(r.Levels)
		for k := range r.Levels {
			if r.Levels[k].IsSel {
				r.Levels[k].Value = ids[r.PatternIdx][r.Levels[k].Pos]
			}
		}
	}
	// A node's selection attributes come from its own relations' levels;
	// selection names are unique per (pattern, position).
	c.Attrs = slices.Clone(n.Attrs)
	for i := range c.Attrs {
		if c.Attrs[i].IsSel {
			c.Attrs[i].Value = selValue(c.Rels, c.Attrs[i].Name)
		}
	}
	if n.Children != nil {
		c.Children = make([]*Node, len(n.Children))
		for i, child := range n.Children {
			c.Children[i] = bindNode(child, ids)
		}
	}
	return &c
}

// selValue returns the bound value of the named selection among rels.
func selValue(rels []RelRef, name string) dict.ID {
	for _, r := range rels {
		for _, a := range r.Levels {
			if a.IsSel && a.Name == name {
				return a.Value
			}
		}
	}
	return 0
}

// Compile builds a physical plan for q over st.
func Compile(q *query.BGP, st *store.Store, opts Options) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	c := &compiler{q: q, st: st, opts: opts}
	if !c.resolve() {
		return c.empty(), nil
	}
	decomp, err := ghd.Choose(c.edges, c.selVerts, ghd.Options{PushdownAcrossNodes: opts.GHDPushdown})
	if err != nil {
		return nil, err
	}
	p, err := c.build(decomp.Root)
	if err != nil {
		return nil, err
	}
	p.Decomposition = decomp
	p.Sym = p.symmetry(q)
	return p, nil
}

// CompileFlat builds the LogicBlox model's plan for q over st (§I, §IV): a
// single node joining every pattern, with attributes in order of first
// appearance — selections probed at their pattern positions, not hoisted —
// uint-array set layouts, and neither a decomposition nor an automorphism
// group.
func CompileFlat(q *query.BGP, st *store.Store) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	c := &compiler{q: q, st: st, opts: Options{Layout: set.PolicyUintOnly}}
	if !c.resolve() {
		return c.empty(), nil
	}
	root := &ghd.Node{}
	for i, e := range c.edges {
		root.Edges = append(root.Edges, i)
		root.Bag = append(root.Bag, e.Vertices...)
	}
	slices.Sort(root.Bag)
	root.Bag = slices.Compact(root.Bag)
	return c.build(root)
}

type patternInfo struct {
	idx        int
	attrs      []Attr // relation attributes in triple-position order
	useTriples bool
	pred       dict.ID
	size       int
}

type compiler struct {
	q    *query.BGP
	st   *store.Store
	opts Options

	patterns []patternInfo
	edges    []hypergraph.Edge
	selVerts map[string]bool
}

// resolve compiles every pattern and adds its hypergraph edge. It reports
// false when a constant is absent from the dictionary, which makes the
// result empty.
func (c *compiler) resolve() bool {
	c.selVerts = map[string]bool{}
	for i, pat := range c.q.Patterns {
		info, ok := c.compilePattern(i, pat)
		if !ok {
			return false
		}
		c.patterns = append(c.patterns, info)
		var verts []string
		seen := map[string]bool{}
		for _, a := range info.attrs {
			if !seen[a.Name] {
				seen[a.Name] = true
				verts = append(verts, a.Name)
			}
		}
		c.edges = append(c.edges, hypergraph.Edge{
			Name:     fmt.Sprintf("p%d", i),
			Vertices: verts,
			Size:     info.size,
		})
	}
	return true
}

// build derives the global attribute order over the decomposition rooted
// at root and builds its physical nodes.
func (c *compiler) build(root *ghd.Node) (*Plan, error) {
	order := c.globalOrder(root)
	orderPos := map[string]int{}
	for i, a := range order {
		orderPos[a] = i
	}
	n, err := c.buildNode(root, orderPos, nil)
	if err != nil {
		return nil, err
	}
	return &Plan{Root: n, GlobalOrder: order, Select: c.q.Select, Distinct: c.q.Distinct, Policy: c.opts.Layout}, nil
}

// empty is the plan of a query a missing constant makes empty.
func (c *compiler) empty() *Plan {
	return &Plan{Empty: true, Select: c.q.Select, Distinct: c.q.Distinct, Policy: c.opts.Layout}
}

// compilePattern resolves one triple pattern to a relation and attributes.
// ok=false means a constant is absent from the dictionary.
func (c *compiler) compilePattern(i int, pat query.Pattern) (patternInfo, bool) {
	info := patternInfo{idx: i}
	mkAttr := func(n query.Node, pos int) (Attr, bool) {
		if n.IsVar {
			return Attr{Name: n.Var, Pos: pos}, true
		}
		id, ok := c.st.Dict().Lookup(n.Term)
		if !ok {
			return Attr{}, false
		}
		name := fmt.Sprintf("$%d.%d", i, pos)
		c.selVerts[name] = true
		return Attr{Name: name, IsSel: true, Value: id, Pos: pos}, true
	}

	if pat.P.IsVar {
		info.useTriples = true
		for pos, n := range []query.Node{pat.S, pat.P, pat.O} {
			a, ok := mkAttr(n, pos)
			if !ok {
				return info, false
			}
			info.attrs = append(info.attrs, a)
		}
		info.size = c.st.NumTriples()
		return info, true
	}

	// Constant predicate: vertically partitioned relation over (S, O).
	pid, ok := c.st.Dict().Lookup(pat.P.Term)
	if !ok {
		return info, false
	}
	rel := c.st.Relation(pid)
	if rel == nil {
		return info, false
	}
	info.pred = pid
	sAttr, ok := mkAttr(pat.S, 0)
	if !ok {
		return info, false
	}
	oAttr, ok := mkAttr(pat.O, 2)
	if !ok {
		return info, false
	}
	info.attrs = []Attr{sAttr, oAttr}
	info.size = estimateSize(rel, sAttr, oAttr)
	return info, true
}

// estimateSize returns the relation cardinality after equality selections,
// using the classic uniform-distribution estimate.
func estimateSize(rel *store.Relation, s, o Attr) int {
	size := rel.Len()
	if s.IsSel && rel.DistinctS() > 0 {
		size /= rel.DistinctS()
	}
	if o.IsSel && rel.DistinctO() > 0 {
		size /= rel.DistinctO()
	}
	if size < 1 {
		size = 1
	}
	return size
}

// globalOrder derives the global attribute order by BFS over the GHD
// (§II-C). With AttributeReorder, the §III-B1 heuristic applies: selection
// vertices are hoisted to the front (e.g. [a b c x y z] for LUBM query 2)
// and, within each node, variables with small post-selection cardinalities
// come before large ones ("forcing the attributes with selections or small
// initial cardinalities to come first").
func (c *compiler) globalOrder(root *ghd.Node) []string {
	var sels, vars []string
	seen := map[string]bool{}
	queue := []*ghd.Node{root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		var nodeVars []string
		for _, ei := range n.Edges {
			for _, a := range c.patterns[ei].attrs {
				if seen[a.Name] {
					continue
				}
				seen[a.Name] = true
				if a.IsSel {
					sels = append(sels, a.Name)
				} else {
					nodeVars = append(nodeVars, a.Name)
				}
			}
		}
		if c.opts.AttributeReorder {
			slices.SortStableFunc(nodeVars, func(a, b string) int {
				return cmp.Compare(c.varCardinality(a), c.varCardinality(b))
			})
		}
		vars = append(vars, nodeVars...)
		queue = append(queue, n.Children...)
	}
	if c.opts.AttributeReorder {
		return append(sels, vars...)
	}
	// Natural order: attributes as first encountered in the BFS, keeping
	// each pattern's subject-predicate-object positions.
	var nat []string
	seen = map[string]bool{}
	queue = []*ghd.Node{root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, ei := range n.Edges {
			for _, a := range c.patterns[ei].attrs {
				if !seen[a.Name] {
					seen[a.Name] = true
					nat = append(nat, a.Name)
				}
			}
		}
		queue = append(queue, n.Children...)
	}
	return nat
}

// varCardinality estimates a variable's initial cardinality: the smallest
// post-selection size among the relations that contain it.
func (c *compiler) varCardinality(v string) int {
	best := 1 << 30
	for _, info := range c.patterns {
		for _, a := range info.attrs {
			if !a.IsSel && a.Name == v && info.size < best {
				best = info.size
			}
		}
	}
	return best
}

func (c *compiler) buildNode(g *ghd.Node, orderPos map[string]int, parentVars map[string]bool) (*Node, error) {
	n := &Node{}

	// Node attribute order: bag sorted by global order. The bag contains
	// attribute names (vars and selection vertices); recover the Attr
	// metadata from the node's patterns.
	attrByName := map[string]Attr{}
	for _, ei := range g.Edges {
		for _, a := range c.patterns[ei].attrs {
			attrByName[a.Name] = a
		}
	}
	names := append([]string(nil), g.Bag...)
	slices.SortFunc(names, func(a, b string) int { return cmp.Compare(orderPos[a], orderPos[b]) })
	for _, name := range names {
		a, ok := attrByName[name]
		if !ok {
			return nil, fmt.Errorf("plan: bag attribute %q not found in node patterns", name)
		}
		n.Attrs = append(n.Attrs, a)
		if !a.IsSel {
			n.Vars = append(n.Vars, a.Name)
		}
	}

	// Relations with trie level orders: pattern attributes sorted by node
	// position (stable, so repeated variables keep their relative order).
	nodePos := map[string]int{}
	for i, a := range n.Attrs {
		nodePos[a.Name] = i
	}
	for _, ei := range g.Edges {
		info := c.patterns[ei]
		levels := append([]Attr(nil), info.attrs...)
		slices.SortStableFunc(levels, func(a, b Attr) int {
			return cmp.Compare(nodePos[a.Name], nodePos[b.Name])
		})
		n.Rels = append(n.Rels, RelRef{
			PatternIdx: info.idx,
			UseTriples: info.useTriples,
			Pred:       info.pred,
			Levels:     levels,
		})
	}

	// Interface with the parent: shared vars, which must form a prefix of
	// this node's variable order for the bottom-up pass to descend child
	// result tries.
	if parentVars != nil {
		for _, v := range n.Vars {
			if parentVars[v] {
				n.Interface = append(n.Interface, v)
			}
		}
		for i, v := range n.Interface {
			if n.Vars[i] != v {
				return nil, fmt.Errorf("plan: interface %v is not a prefix of node vars %v", n.Interface, n.Vars)
			}
		}
	}

	ownVars := map[string]bool{}
	for _, v := range n.Vars {
		ownVars[v] = true
	}
	for _, gc := range g.Children {
		child, err := c.buildNode(gc, orderPos, ownVars)
		if err != nil {
			return nil, err
		}
		n.Children = append(n.Children, child)
	}
	return n, nil
}

// Nodes returns all plan nodes in pre-order, for tests and tools.
func (p *Plan) Nodes() []*Node {
	if p.Root == nil {
		return nil
	}
	var out []*Node
	var walk func(*Node)
	walk = func(n *Node) {
		out = append(out, n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(p.Root)
	return out
}

// RootCoversAllVars reports whether every variable of every plan node
// already occurs in the root's bag, in which case the root's generic join
// binds the complete solution and no re-enumeration over materialized node
// results is needed.
func (p *Plan) RootCoversAllVars() bool {
	rootVars := map[string]bool{}
	for _, v := range p.Root.Vars {
		rootVars[v] = true
	}
	for _, n := range p.Nodes() {
		for _, v := range n.Vars {
			if !rootVars[v] {
				return false
			}
		}
	}
	return true
}

// String renders the plan for debugging and the ghdviz tool. A kept
// automorphism group follows the projection: its order, its generators in
// cycle notation and the bound, e.g. "sym=3 (x y z) bound y,z≥x".
func (p *Plan) String() string {
	if p.Empty {
		return "Plan{empty}"
	}
	sym := ""
	if p.Sym != nil {
		sym = " " + p.SymString()
	}
	s := fmt.Sprintf("Plan{order=%v select=%v%s}\n", p.GlobalOrder, p.Select, sym)
	var walk func(n *Node, indent string)
	walk = func(n *Node, indent string) {
		s += indent + "node vars=" + fmt.Sprint(n.Vars)
		if len(n.Interface) > 0 {
			s += " iface=" + fmt.Sprint(n.Interface)
		}
		s += " rels="
		for i, r := range n.Rels {
			if i > 0 {
				s += ","
			}
			s += fmt.Sprintf("p%d", r.PatternIdx)
		}
		s += "\n"
		for _, c := range n.Children {
			walk(c, indent+"  ")
		}
	}
	walk(p.Root, "  ")
	return s
}
