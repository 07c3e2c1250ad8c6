package hypergraph

import (
	"math"
	"reflect"
	"testing"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestTriangleFractionalCover(t *testing.T) {
	// The canonical result: the triangle query has ρ* = 3/2 (§I of the
	// paper: O(N^{3/2}) worst-case output).
	edges := []Edge{
		{Name: "R", Vertices: []string{"x", "y"}, Size: 100},
		{Name: "S", Vertices: []string{"y", "z"}, Size: 100},
		{Name: "T", Vertices: []string{"z", "x"}, Size: 100},
	}
	got, err := FractionalCoverNumber([]string{"x", "y", "z"}, edges)
	if err != nil {
		t.Fatalf("FractionalCoverNumber: %v", err)
	}
	if !approx(got, 1.5) {
		t.Errorf("triangle ρ* = %v, want 1.5", got)
	}
	// AGM bound = N^{3/2}.
	bound, err := AGMBound([]string{"x", "y", "z"}, edges)
	if err != nil {
		t.Fatalf("AGMBound: %v", err)
	}
	if !approx(bound, math.Pow(100, 1.5)) {
		t.Errorf("triangle AGM = %v, want 1000", bound)
	}
	// The optimal cover puts weight 1/2 on every edge.
	x, err := FractionalCover([]string{"x", "y", "z"}, edges)
	if err != nil {
		t.Fatalf("FractionalCover: %v", err)
	}
	sum := x[0] + x[1] + x[2]
	if !approx(sum, 1.5) {
		t.Errorf("cover weights %v sum to %v", x, sum)
	}
	for _, w := range x {
		if w < -1e-9 || w > 1+1e-9 {
			t.Errorf("weight out of range: %v", x)
		}
	}
}

func TestSingleEdgeCover(t *testing.T) {
	edges := []Edge{{Name: "R", Vertices: []string{"x", "y"}, Size: 50}}
	got, err := FractionalCoverNumber([]string{"x", "y"}, edges)
	if err != nil || !approx(got, 1) {
		t.Errorf("single edge ρ* = %v, %v; want 1", got, err)
	}
	bound, err := AGMBound([]string{"x", "y"}, edges)
	if err != nil || !approx(bound, 50) {
		t.Errorf("single edge AGM = %v, %v; want 50", bound, err)
	}
}

func TestStarQueryCover(t *testing.T) {
	// R(x,y1) S(x,y2) T(x,y3): covering all vertices needs all 3 edges.
	edges := []Edge{
		{Name: "R", Vertices: []string{"x", "y1"}, Size: 10},
		{Name: "S", Vertices: []string{"x", "y2"}, Size: 10},
		{Name: "T", Vertices: []string{"x", "y3"}, Size: 10},
	}
	got, err := FractionalCoverNumber([]string{"x", "y1", "y2", "y3"}, edges)
	if err != nil || !approx(got, 3) {
		t.Errorf("star ρ* = %v, %v; want 3", got, err)
	}
	// Covering just x needs one edge.
	got, err = FractionalCoverNumber([]string{"x"}, edges)
	if err != nil || !approx(got, 1) {
		t.Errorf("cover of {x} = %v, %v; want 1", got, err)
	}
}

func TestFourCycleCover(t *testing.T) {
	// 4-cycle: ρ* = 2 (two opposite edges).
	edges := []Edge{
		{Name: "A", Vertices: []string{"a", "b"}, Size: 10},
		{Name: "B", Vertices: []string{"b", "c"}, Size: 10},
		{Name: "C", Vertices: []string{"c", "d"}, Size: 10},
		{Name: "D", Vertices: []string{"d", "a"}, Size: 10},
	}
	got, err := FractionalCoverNumber([]string{"a", "b", "c", "d"}, edges)
	if err != nil || !approx(got, 2) {
		t.Errorf("4-cycle ρ* = %v, %v; want 2", got, err)
	}
}

func TestAGMUnevenSizes(t *testing.T) {
	// With a tiny edge available, the cover leans on it: target {x,y},
	// edges R(x,y) size 1000, S(x,y) size 10 -> AGM = 10.
	edges := []Edge{
		{Name: "R", Vertices: []string{"x", "y"}, Size: 1000},
		{Name: "S", Vertices: []string{"x", "y"}, Size: 10},
	}
	bound, err := AGMBound([]string{"x", "y"}, edges)
	if err != nil || !approx(bound, 10) {
		t.Errorf("AGM = %v, %v; want 10", bound, err)
	}
}

func TestAGMZeroSizeClamped(t *testing.T) {
	edges := []Edge{{Name: "R", Vertices: []string{"x"}, Size: 0}}
	bound, err := AGMBound([]string{"x"}, edges)
	if err != nil || !approx(bound, 1) {
		t.Errorf("AGM with zero size = %v, %v; want 1", bound, err)
	}
}

func TestInfeasibleCover(t *testing.T) {
	edges := []Edge{{Name: "R", Vertices: []string{"x"}, Size: 5}}
	if _, err := FractionalCoverNumber([]string{"x", "zz"}, edges); err == nil {
		t.Errorf("expected infeasibility error")
	}
	if _, err := AGMBound([]string{"zz"}, edges); err == nil {
		t.Errorf("expected infeasibility error from AGMBound")
	}
	if _, err := FractionalCover([]string{"zz"}, edges); err == nil {
		t.Errorf("expected infeasibility error from FractionalCover")
	}
}

func TestEmptyTarget(t *testing.T) {
	edges := []Edge{{Name: "R", Vertices: []string{"x"}, Size: 5}}
	v, err := FractionalCoverNumber(nil, edges)
	if err != nil || v != 0 {
		t.Errorf("empty target ρ* = %v, %v", v, err)
	}
	b, err := AGMBound(nil, edges)
	if err != nil || b != 1 {
		t.Errorf("empty target AGM = %v, %v", b, err)
	}
	x, err := FractionalCover(nil, edges)
	if err != nil || len(x) != 1 {
		t.Errorf("empty target cover = %v, %v", x, err)
	}
}

func TestVertices(t *testing.T) {
	h := New([]Edge{
		{Name: "R", Vertices: []string{"z", "a"}},
		{Name: "S", Vertices: []string{"a", "m"}},
	})
	if got := h.Vertices(); !reflect.DeepEqual(got, []string{"a", "m", "z"}) {
		t.Errorf("Vertices = %v", got)
	}
}

func TestEdgeHelpers(t *testing.T) {
	e := Edge{Name: "R", Vertices: []string{"x", "y"}}
	if !e.HasVertex("x") || e.HasVertex("q") {
		t.Errorf("HasVertex wrong")
	}
	if e.String() != "R(x,y)" {
		t.Errorf("String = %q", e.String())
	}
}

func TestConnectedComponents(t *testing.T) {
	all := []Edge{
		{Name: "A", Vertices: []string{"x", "y"}}, // 0
		{Name: "B", Vertices: []string{"y", "z"}}, // 1
		{Name: "C", Vertices: []string{"p", "q"}}, // 2
		{Name: "D", Vertices: []string{"q", "r"}}, // 3
		{Name: "E", Vertices: []string{"x", "p"}}, // 4: bridges both via x,p
	}
	// No separator: everything is one component (via E).
	comps := Connected([]int{0, 1, 2, 3, 4}, all, nil)
	if len(comps) != 1 || len(comps[0]) != 5 {
		t.Errorf("components = %v", comps)
	}
	// Separating on x and p cuts the bridge.
	sep := map[string]bool{"x": true, "p": true}
	comps = Connected([]int{0, 1, 2, 3, 4}, all, sep)
	if len(comps) != 3 {
		t.Fatalf("components with separator = %v", comps)
	}
	if !reflect.DeepEqual(comps[0], []int{0, 1}) {
		t.Errorf("first component = %v", comps[0])
	}
	if !reflect.DeepEqual(comps[1], []int{2, 3}) {
		t.Errorf("second component = %v", comps[1])
	}
	if !reflect.DeepEqual(comps[2], []int{4}) {
		t.Errorf("third component = %v", comps[2])
	}
	if got := Connected(nil, all, nil); got != nil {
		t.Errorf("empty edge list components = %v", got)
	}
}

func TestSolveCoverLPDirect(t *testing.T) {
	// min x0 + 2*x1 s.t. x0+x1 >= 1 (both cover), x1 >= 1 (only x1 covers).
	x, val, err := SolveCoverLP([]float64{1, 2}, [][]bool{{true, true}, {false, true}})
	if err != nil {
		t.Fatalf("SolveCoverLP: %v", err)
	}
	// x1 = 1 satisfies both rows; x0 = 0. Value 2.
	if !approx(val, 2) || !approx(x[1], 1) || !approx(x[0], 0) {
		t.Errorf("x = %v val = %v", x, val)
	}
	// Zero rows: trivially optimal at zero.
	x, val, err = SolveCoverLP([]float64{3}, nil)
	if err != nil || val != 0 || len(x) != 1 {
		t.Errorf("no-constraint LP = %v %v %v", x, val, err)
	}
	// Ragged membership errors.
	if _, _, err := SolveCoverLP([]float64{1}, [][]bool{{true, false}}); err == nil {
		t.Errorf("ragged membership accepted")
	}
}

func TestLPLargerRandomish(t *testing.T) {
	// A 6-vertex, 7-edge cover instance; check the LP result against the
	// obvious integral optimum of 2 ({e1 covers a,b,c}, {e2 covers d,e,f}).
	edges := []Edge{
		{Name: "e1", Vertices: []string{"a", "b", "c"}, Size: 10},
		{Name: "e2", Vertices: []string{"d", "e", "f"}, Size: 10},
		{Name: "e3", Vertices: []string{"a", "d"}, Size: 10},
		{Name: "e4", Vertices: []string{"b", "e"}, Size: 10},
		{Name: "e5", Vertices: []string{"c", "f"}, Size: 10},
		{Name: "e6", Vertices: []string{"a"}, Size: 10},
		{Name: "e7", Vertices: []string{"f"}, Size: 10},
	}
	got, err := FractionalCoverNumber([]string{"a", "b", "c", "d", "e", "f"}, edges)
	if err != nil || !approx(got, 2) {
		t.Errorf("ρ* = %v, %v; want 2", got, err)
	}
}
