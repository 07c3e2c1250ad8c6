package ghd

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/hypergraph"
)

// q2Edges models LUBM query 2: a triangle over x,y,z plus three selective
// type relations with selection vertices $a,$b,$c.
func q2Edges() ([]hypergraph.Edge, map[string]bool) {
	edges := []hypergraph.Edge{
		{Name: "type_x", Vertices: []string{"x", "$a"}, Size: 1000},
		{Name: "type_y", Vertices: []string{"y", "$b"}, Size: 1000},
		{Name: "type_z", Vertices: []string{"z", "$c"}, Size: 1000},
		{Name: "memberOf", Vertices: []string{"x", "z"}, Size: 5000},
		{Name: "subOrg", Vertices: []string{"z", "y"}, Size: 500},
		{Name: "uDF", Vertices: []string{"x", "y"}, Size: 2000},
	}
	sel := map[string]bool{"$a": true, "$b": true, "$c": true}
	return edges, sel
}

// q4Edges models LUBM query 4's acyclic star: R(x,y1) S(x,$a) T(x,$b)
// U(x,y2) V(x,y3) with selections on $a and $b (Figure 3).
func q4Edges() ([]hypergraph.Edge, map[string]bool) {
	edges := []hypergraph.Edge{
		{Name: "R", Vertices: []string{"x", "y1"}, Size: 1000},
		{Name: "S", Vertices: []string{"x", "$a"}, Size: 1000},
		{Name: "T", Vertices: []string{"x", "$b"}, Size: 1000},
		{Name: "U", Vertices: []string{"x", "y2"}, Size: 1000},
		{Name: "V", Vertices: []string{"x", "y3"}, Size: 1000},
	}
	sel := map[string]bool{"$a": true, "$b": true}
	return edges, sel
}

func TestFigure2GHDQuery2(t *testing.T) {
	edges, sel := q2Edges()
	g, err := Choose(edges, sel, Options{})
	if err != nil {
		t.Fatalf("Choose: %v", err)
	}
	if math.Abs(g.Width-1.5) > 1e-6 {
		t.Errorf("Q2 width = %v, want 1.5 (the paper's fhw for Figure 2)", g.Width)
	}
	// The baseline objective (min width, then min height) yields the
	// Figure 2 shape: the triangle in one node with the three type
	// relations hanging off it.
	if g.Height != 1 {
		t.Errorf("Q2 height = %d, want 1\n%s", g.Height, g)
	}
	if !reflect.DeepEqual(g.Root.Bag, []string{"x", "y", "z"}) {
		t.Errorf("Q2 root bag = %v, want [x y z]\n%s", g.Root.Bag, g)
	}
	if !reflect.DeepEqual(g.Root.Edges, []int{3, 4, 5}) {
		t.Errorf("Q2 root edges = %v, want the triangle [3 4 5]\n%s", g.Root.Edges, g)
	}
	if len(g.Root.Children) != 3 {
		t.Fatalf("Q2 root children = %d, want 3\n%s", len(g.Root.Children), g)
	}
	if err := Validate(g, edges); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestQuery2PushdownKeepsWidth(t *testing.T) {
	edges, sel := q2Edges()
	g, err := Choose(edges, sel, Options{PushdownAcrossNodes: true})
	if err != nil {
		t.Fatalf("Choose: %v", err)
	}
	if math.Abs(g.WidthVars-1.5) > 1e-6 {
		t.Errorf("Q2 pushdown widthVars = %v, want 1.5", g.WidthVars)
	}
	// Pushdown maximizes selection depth; selections must not sit at the
	// root-only depth 0 in aggregate.
	if g.SelectionDepth < 3 {
		t.Errorf("Q2 pushdown selection depth = %d, want >= 3\n%s", g.SelectionDepth, g)
	}
	if err := Validate(g, edges); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestFigure3GHDQuery4(t *testing.T) {
	edges, sel := q4Edges()

	// Baseline: min width (1), then min height -> a star of height 1; the
	// selective relations sit directly under the root.
	base, err := Choose(edges, sel, Options{})
	if err != nil {
		t.Fatalf("Choose baseline: %v", err)
	}
	if math.Abs(base.Width-1) > 1e-6 || base.Height != 1 {
		t.Errorf("Q4 baseline width/height = %v/%d, want 1/1\n%s", base.Width, base.Height, base)
	}
	if err := Validate(base, edges); err != nil {
		t.Errorf("Validate baseline: %v", err)
	}

	// +GHD: selective relations pushed as deep as possible (Figure 3
	// right): selection depth strictly improves over the baseline.
	push, err := Choose(edges, sel, Options{PushdownAcrossNodes: true})
	if err != nil {
		t.Fatalf("Choose pushdown: %v", err)
	}
	if math.Abs(push.WidthVars-1) > 1e-6 {
		t.Errorf("Q4 pushdown widthVars = %v, want 1", push.WidthVars)
	}
	if push.SelectionDepth <= base.SelectionDepth {
		t.Errorf("pushdown selection depth %d not deeper than baseline %d\nbase:\n%s\npush:\n%s",
			push.SelectionDepth, base.SelectionDepth, base, push)
	}
	// The selective relations S (edge 1) and T (edge 2) must be strictly
	// below the root.
	rootEdges := map[int]bool{}
	for _, e := range push.Root.Edges {
		rootEdges[e] = true
	}
	if rootEdges[1] || rootEdges[2] {
		t.Errorf("pushdown left a selective relation at the root\n%s", push)
	}
	if err := Validate(push, edges); err != nil {
		t.Errorf("Validate pushdown: %v", err)
	}
}

func TestSingleEdgeQuery(t *testing.T) {
	edges := []hypergraph.Edge{{Name: "type", Vertices: []string{"x", "$a"}, Size: 100}}
	sel := map[string]bool{"$a": true}
	g, err := Choose(edges, sel, Options{})
	if err != nil {
		t.Fatalf("Choose: %v", err)
	}
	if g.NumNodes != 1 || g.Height != 0 || math.Abs(g.Width-1) > 1e-6 {
		t.Errorf("single-edge GHD = %+v", g)
	}
	if err := Validate(g, edges); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestTwoSelectiveEdgesQuery1Shape(t *testing.T) {
	// LUBM Q1: type(x,$a) and takesCourse(x,$b), both selective.
	edges := []hypergraph.Edge{
		{Name: "type", Vertices: []string{"x", "$a"}, Size: 1000},
		{Name: "takesCourse", Vertices: []string{"x", "$b"}, Size: 3000},
	}
	sel := map[string]bool{"$a": true, "$b": true}
	for _, pd := range []bool{false, true} {
		g, err := Choose(edges, sel, Options{PushdownAcrossNodes: pd})
		if err != nil {
			t.Fatalf("Choose(pushdown=%v): %v", pd, err)
		}
		if err := Validate(g, edges); err != nil {
			t.Errorf("Validate(pushdown=%v): %v\n%s", pd, err, g)
		}
	}
}

func TestEveryEnumeratedGHDIsValid(t *testing.T) {
	for name, mk := range map[string]func() ([]hypergraph.Edge, map[string]bool){
		"q2": q2Edges,
		"q4": q4Edges,
	} {
		edges, sel := mk()
		cands, err := enumerate(edges, Options{MaxCandidates: 500})
		if err != nil {
			t.Fatalf("%s: enumerate: %v", name, err)
		}
		if len(cands) < 2 {
			t.Fatalf("%s: expected multiple candidates, got %d", name, len(cands))
		}
		sc := newScorer(edges, sel)
		for i, root := range cands {
			g, err := sc.score(root)
			if err != nil {
				t.Fatalf("%s candidate %d: score: %v", name, i, err)
			}
			if err := Validate(g, edges); err != nil {
				t.Errorf("%s candidate %d invalid: %v\n%s", name, i, err, g)
			}
		}
	}
}

func TestChooseErrors(t *testing.T) {
	if _, err := Choose(nil, nil, Options{}); err == nil {
		t.Errorf("empty edge list should error")
	}
	big := make([]hypergraph.Edge, 31)
	for i := range big {
		big[i] = hypergraph.Edge{Name: "e", Vertices: []string{"x"}}
	}
	if _, err := Choose(big, nil, Options{}); err == nil {
		t.Errorf("oversized query should error")
	}
}

func TestDisconnectedQueryDecomposes(t *testing.T) {
	// Cartesian product of two independent patterns — still a valid GHD
	// (two components under whichever root is chosen).
	edges := []hypergraph.Edge{
		{Name: "A", Vertices: []string{"x", "y"}, Size: 10},
		{Name: "B", Vertices: []string{"p", "q"}, Size: 10},
	}
	g, err := Choose(edges, nil, Options{})
	if err != nil {
		t.Fatalf("Choose: %v", err)
	}
	if err := Validate(g, edges); err != nil {
		t.Errorf("Validate: %v\n%s", err, g)
	}
	if g.NumNodes != 2 {
		t.Errorf("expected 2 nodes, got %d\n%s", g.NumNodes, g)
	}
}

func TestSelfJoinDuplicateEdges(t *testing.T) {
	// Two patterns over the same relation and the same vertices: one gets
	// absorbed into the other's node.
	edges := []hypergraph.Edge{
		{Name: "R", Vertices: []string{"x", "y"}, Size: 10},
		{Name: "R", Vertices: []string{"x", "y"}, Size: 10},
	}
	g, err := Choose(edges, nil, Options{})
	if err != nil {
		t.Fatalf("Choose: %v", err)
	}
	if g.NumNodes != 1 || len(g.Root.Edges) != 2 {
		t.Errorf("absorption failed: %s", g)
	}
	if err := Validate(g, edges); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestPathQueryGHD(t *testing.T) {
	// R(a,b) S(b,c) T(c,d): acyclic chain, width must be 1.
	edges := []hypergraph.Edge{
		{Name: "R", Vertices: []string{"a", "b"}, Size: 10},
		{Name: "S", Vertices: []string{"b", "c"}, Size: 10},
		{Name: "T", Vertices: []string{"c", "d"}, Size: 10},
	}
	g, err := Choose(edges, nil, Options{})
	if err != nil {
		t.Fatalf("Choose: %v", err)
	}
	if math.Abs(g.Width-1) > 1e-6 {
		t.Errorf("chain width = %v, want 1\n%s", g.Width, g)
	}
	if err := Validate(g, edges); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestTriangleOnlyGHD(t *testing.T) {
	edges := []hypergraph.Edge{
		{Name: "R", Vertices: []string{"x", "y"}, Size: 10},
		{Name: "S", Vertices: []string{"y", "z"}, Size: 10},
		{Name: "T", Vertices: []string{"z", "x"}, Size: 10},
	}
	g, err := Choose(edges, nil, Options{})
	if err != nil {
		t.Fatalf("Choose: %v", err)
	}
	// A cyclic query: the best GHD is the single node holding all three
	// relations with width 1.5.
	if g.NumNodes != 1 || math.Abs(g.Width-1.5) > 1e-6 {
		t.Errorf("triangle GHD = %s", g)
	}
}

func TestGHDStringRendering(t *testing.T) {
	edges, sel := q2Edges()
	g, err := Choose(edges, sel, Options{})
	if err != nil {
		t.Fatalf("Choose: %v", err)
	}
	s := g.String()
	if !strings.Contains(s, "width=1.50") || !strings.Contains(s, "[x y z]") {
		t.Errorf("String() = %s", s)
	}
}
