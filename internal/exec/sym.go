package exec

import (
	"slices"

	"repro/internal/plan"
)

// Symmetry breaking: the final join of a plan that keeps its BGP's
// automorphism group G (plan.Plan.Sym) enumerates one binding per orbit and
// emits the orbit's images.
//
// Let a be the first attribute whose orbit under G has more than one member.
// The join enumerates only bindings in which every other member of a's orbit
// is at or above a's value: the leapfrog seeks from that bound, and the
// last attribute keeps only the members at or above it. Among a solution's
// images the lexicographically least one, in attribute order, is within the
// bound — the attributes before a are fixed by every element of G, and the
// least image puts the orbit's smallest value at a — so enumerating within
// the bound misses no orbit. Ties (a self-loop, a 2-cycle under the 4-cycle)
// let an orbit have several enumerated bindings, so each enumerated binding
// is passed on only when it is the least of its images (emitOrbit), and then
// each of its distinct images once: every solution comes out exactly once.
// A parallel worker owns a residue class of the first variable's value in
// the least image, which is unique, so no two workers emit a solution.
//
// For the triangle ?x→?y→?z→?x, G is its three rotations, and the join
// enumerates each directed 3-cycle once, from its smallest vertex, instead
// of once per rotation.

// symmetry is the final join's share of a plan's group: its non-identity
// elements over the join's attributes, the attribute a the bound hangs on,
// and which attributes are bounded by a's value. It is read-only, shared by
// parallel workers.
type symmetry struct {
	perms   [][]int
	a       int
	bounded []bool
}

// newSymmetry returns the symmetry of p's final join, or nil when p keeps no
// group. The plan keeps one only when its root binds every variable, and
// then the final join's attributes are the root's, in the same order.
func newSymmetry(p *plan.Plan) *symmetry {
	if p.Sym == nil {
		return nil
	}
	a, above := p.SymBound()
	s := &symmetry{perms: p.Sym[1:], a: a, bounded: make([]bool, len(p.Root.Attrs))}
	for _, b := range above {
		s.bounded[b] = true
	}
	return s
}

// lowerBound returns the least value attribute idx may take: a's value when
// idx is bounded by it, else 0.
func (j *joiner) lowerBound(idx int) uint32 {
	if j.sym == nil || !j.sym.bounded[idx] {
		return 0
	}
	return j.binding[j.sym.a]
}

// trimBelow returns the members of the ascending vals at or above lo.
func trimBelow(vals []uint32, lo uint32) []uint32 {
	if lo == 0 {
		return vals
	}
	if len(vals) > 32 {
		i, _ := slices.BinarySearch(vals, lo)
		return vals[i:]
	}
	i := 0
	for _, v := range vals {
		if v < lo {
			i++
		}
	}
	return vals[i:]
}

// emitOrbit is the join's emit under a symmetry. It passes t on to j.out
// only when no image of t under the group is lexicographically smaller, and
// then passes on each of t's images that differs from t and from the images
// before it. The attributes before a are fixed points of every element, so
// comparisons start at a.
func (j *joiner) emitOrbit(t []uint32) error {
	s := j.sym
	for _, perm := range s.perms {
		for i := s.a; i < len(t); i++ {
			if u := t[perm[i]]; u != t[i] {
				if u < t[i] {
					return nil
				}
				break
			}
		}
	}
	if err := j.out(t); err != nil {
		return err
	}
	n, kept := len(t), 0
next:
	for _, perm := range s.perms {
		img := j.imgs[kept*n : (kept+1)*n]
		for i := range img {
			img[i] = t[perm[i]]
		}
		if slices.Equal(img[s.a:], t[s.a:]) {
			continue
		}
		for k := 0; k < kept; k++ {
			if slices.Equal(img[s.a:], j.imgs[k*n+s.a:(k+1)*n]) {
				continue next
			}
		}
		kept++
		if err := j.out(img); err != nil {
			return err
		}
	}
	return nil
}
