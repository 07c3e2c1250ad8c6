package hypergraph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Edge is one hyperedge: a named relation over a set of attribute vertices,
// with its cardinality for AGM weighting.
type Edge struct {
	// Name identifies the relation instance (engines use the pattern
	// index); names need not be unique.
	Name string
	// Vertices are the attributes the relation spans (variables only —
	// positions bound to constants are selections, not vertices; see
	// §III-B2 step 1).
	Vertices []string
	// Size is the relation cardinality |R_e| (after selections when the
	// planner has that estimate). Must be >= 0; 0 is treated as 1 when
	// taking logarithms.
	Size int
}

// HasVertex reports whether v is spanned by the edge.
func (e Edge) HasVertex(v string) bool {
	for _, x := range e.Vertices {
		if x == v {
			return true
		}
	}
	return false
}

func (e Edge) String() string {
	return fmt.Sprintf("%s(%s)", e.Name, strings.Join(e.Vertices, ","))
}

// Hypergraph is a query hypergraph.
type Hypergraph struct {
	Edges []Edge
}

// New builds a hypergraph from edges.
func New(edges []Edge) *Hypergraph { return &Hypergraph{Edges: edges} }

// Vertices returns all vertices in deterministic (sorted) order.
func (h *Hypergraph) Vertices() []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range h.Edges {
		for _, v := range e.Vertices {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	slices.Sort(out)
	return out
}

// FractionalCoverNumber returns ρ*(target): the minimum total weight of a
// fractional cover of the target vertices by the given edges (unit edge
// costs). This is the classic fractional-hypertree-width objective: the
// triangle query has ρ* = 1.5. An error is returned when some target vertex
// appears in no edge.
func FractionalCoverNumber(target []string, edges []Edge) (float64, error) {
	if len(target) == 0 {
		return 0, nil
	}
	cost := make([]float64, len(edges))
	for i := range cost {
		cost[i] = 1
	}
	_, val, err := coverLP(target, edges, cost)
	return val, err
}

// AGMBound returns the Atserias-Grohe-Marx bound on the output size of the
// join of the given edges projected to the target vertices: the minimum of
// Π_e |R_e|^{x_e} over fractional covers x of the target. Edge sizes of zero
// are clamped to one. An error is returned when the target cannot be
// covered.
func AGMBound(target []string, edges []Edge) (float64, error) {
	if len(target) == 0 {
		return 1, nil
	}
	cost := make([]float64, len(edges))
	for i, e := range edges {
		size := e.Size
		if size < 1 {
			size = 1
		}
		cost[i] = math.Log(float64(size))
	}
	_, val, err := coverLP(target, edges, cost)
	if err != nil {
		return 0, err
	}
	return math.Exp(val), nil
}

// FractionalCover returns the optimal cover weights themselves, aligned with
// edges, for unit costs.
func FractionalCover(target []string, edges []Edge) ([]float64, error) {
	if len(target) == 0 {
		return make([]float64, len(edges)), nil
	}
	cost := make([]float64, len(edges))
	for i := range cost {
		cost[i] = 1
	}
	x, _, err := coverLP(target, edges, cost)
	return x, err
}

func coverLP(target []string, edges []Edge, cost []float64) ([]float64, float64, error) {
	member := make([][]bool, len(target))
	for r, v := range target {
		row := make([]bool, len(edges))
		for i, e := range edges {
			row[i] = e.HasVertex(v)
		}
		member[r] = row
	}
	return SolveCoverLP(cost, member)
}

// Connected partitions the given edges into connected components, where two
// edges are connected when they share at least one vertex outside the
// separator set. This is the decomposition step GHD construction uses: after
// fixing a bag, the remaining edges split into independent subproblems.
func Connected(edges []int, all []Edge, separator map[string]bool) [][]int {
	if len(edges) == 0 {
		return nil
	}
	// Union-find over the edge list.
	parent := make(map[int]int, len(edges))
	for _, e := range edges {
		parent[e] = e
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	byVertex := map[string][]int{}
	for _, ei := range edges {
		for _, v := range all[ei].Vertices {
			if !separator[v] {
				byVertex[v] = append(byVertex[v], ei)
			}
		}
	}
	for _, group := range byVertex {
		for _, e := range group[1:] {
			union(group[0], e)
		}
	}
	comps := map[int][]int{}
	for _, e := range edges {
		r := find(e)
		comps[r] = append(comps[r], e)
	}
	// Deterministic output order: by smallest edge index in the component.
	var roots []int
	for r := range comps {
		roots = append(roots, r)
	}
	slices.SortFunc(roots, func(a, b int) int { return cmp.Compare(comps[a][0], comps[b][0]) })
	out := make([][]int, 0, len(roots))
	for _, r := range roots {
		c := comps[r]
		slices.Sort(c)
		out = append(out, c)
	}
	return out
}
