package graph_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	// An external test package, since graphtest imports graph.
	. "hidinglcp/internal/graph"
	"hidinglcp/internal/graph/graphtest"
)

func TestPath(t *testing.T) {
	g := Path(5)
	if g.N() != 5 || g.M() != 4 {
		t.Errorf("P5: n=%d m=%d, want 5,4", g.N(), g.M())
	}
	if !g.IsPathGraph() {
		t.Error("Path(5) is not a path graph")
	}
}

func TestCycleErrors(t *testing.T) {
	for _, n := range []int{0, 1, 2} {
		if _, err := Cycle(n); err == nil {
			t.Errorf("Cycle(%d) succeeded, want error", n)
		}
	}
}

func TestCycle(t *testing.T) {
	g := MustCycle(6)
	if g.N() != 6 || g.M() != 6 {
		t.Errorf("C6: n=%d m=%d, want 6,6", g.N(), g.M())
	}
	if !g.IsCycleGraph() {
		t.Error("Cycle(6) is not a cycle graph")
	}
}

func TestStarComplete(t *testing.T) {
	if g := Star(6); g.M() != 5 || g.Degree(0) != 5 {
		t.Errorf("Star(6) malformed: %v", g)
	}
	if g := Complete(5); g.M() != 10 {
		t.Errorf("K5 has %d edges, want 10", g.M())
	}
	if g := graphtest.CompleteBipartite(2, 3); g.M() != 6 || !g.IsBipartite() {
		t.Errorf("K23 malformed: %v", g)
	}
}

func TestGrid(t *testing.T) {
	g := Grid(3, 4)
	if g.N() != 12 {
		t.Fatalf("grid n = %d, want 12", g.N())
	}
	// 3*3 horizontal + 2*4 vertical = 9 + 8 = 17.
	if g.M() != 17 {
		t.Errorf("grid m = %d, want 17", g.M())
	}
	if !g.IsBipartite() || !g.Connected() {
		t.Error("grid should be connected and bipartite")
	}
}

func TestTorus(t *testing.T) {
	g, err := Torus(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 12 || g.M() != 24 {
		t.Errorf("torus n=%d m=%d, want 12,24", g.N(), g.M())
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("torus node %d has degree %d, want 4", v, g.Degree(v))
		}
	}
	if _, err := Torus(2, 4); err == nil {
		t.Error("Torus(2,4) succeeded, want error")
	}
}

func TestCompleteBinaryTree(t *testing.T) {
	g := CompleteBinaryTree(3)
	if g.N() != 7 || g.M() != 6 {
		t.Errorf("tree n=%d m=%d, want 7,6", g.N(), g.M())
	}
	if !g.Connected() || g.CountCycles() != 0 {
		t.Error("complete binary tree should be a tree")
	}
	if g := CompleteBinaryTree(0); g.N() != 0 {
		t.Error("CompleteBinaryTree(0) should be empty")
	}
}

func TestRandomTree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(10)
		g := RandomTree(n, rng)
		if !g.Connected() || g.M() != n-1 {
			t.Fatalf("RandomTree(%d) not a tree: %v", n, g)
		}
	}
}

func TestGNPExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if g := GNP(6, 0, rng); g.M() != 0 {
		t.Error("GNP(p=0) has edges")
	}
	if g := GNP(6, 1, rng); g.M() != 15 {
		t.Error("GNP(p=1) is not complete")
	}
}

func TestConnectedGNP(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		g := graphtest.ConnectedGNP(8, 0.2, rng)
		if !g.Connected() {
			t.Fatal("ConnectedGNP returned disconnected graph")
		}
	}
}

func TestWatermelon(t *testing.T) {
	g := MustWatermelon([]int{2, 3, 4})
	// n = 2 + (1 + 2 + 3) = 8; m = 2 + 3 + 4 = 9.
	if g.N() != 8 || g.M() != 9 {
		t.Fatalf("watermelon n=%d m=%d, want 8,9", g.N(), g.M())
	}
	v1, v2 := graphtest.WatermelonEndpoints()
	if g.Degree(v1) != 3 || g.Degree(v2) != 3 {
		t.Errorf("endpoint degrees = (%d,%d), want (3,3)", g.Degree(v1), g.Degree(v2))
	}
	if !IsWatermelon(g, v1, v2) {
		t.Error("IsWatermelon rejects a generated watermelon")
	}
}

func TestWatermelonErrors(t *testing.T) {
	if _, err := Watermelon(nil); err == nil {
		t.Error("empty watermelon accepted")
	}
	if _, err := Watermelon([]int{1, 2}); err == nil {
		t.Error("length-1 path accepted")
	}
}

func TestWatermelonParityBipartite(t *testing.T) {
	tests := []struct {
		name  string
		paths []int
		want  bool
	}{
		{"all even", []int{2, 4, 6}, true},
		{"all odd", []int{3, 5}, true},
		{"mixed", []int{2, 3}, false},
		{"single path", []int{5}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g := MustWatermelon(tt.paths)
			if got := g.IsBipartite(); got != tt.want {
				t.Errorf("bipartite = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestIsWatermelonRejects(t *testing.T) {
	tests := []struct {
		name   string
		g      *Graph
		v1, v2 int
	}{
		{"cycle wrong endpoints", MustCycle(6), 0, 1},
		{"same node", Path(3), 1, 1},
		{"grid", Grid(3, 3), 0, 8},
		{"adjacent endpoints", Path(2), 0, 1},
		{"star", Star(5), 0, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if IsWatermelon(tt.g, tt.v1, tt.v2) {
				t.Error("IsWatermelon accepted a non-watermelon")
			}
		})
	}
	// A cycle IS a watermelon when the endpoints are antipodal non-adjacent
	// nodes (two paths of length >= 2).
	if !IsWatermelon(MustCycle(6), 0, 3) {
		t.Error("C6 with antipodal endpoints should be a watermelon")
	}
}

func TestHasShatterPoint(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want bool
	}{
		{"path5", Path(5), true},
		{"path4", Path(4), false},
		{"cycle6", MustCycle(6), false},
		{"spider", Spider([]int{2, 2, 2}), true},
		{"complete", Complete(4), false},
		{"grid4x4", Grid(4, 4), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := HasShatterPoint(tt.g) >= 0
			if got != tt.want {
				t.Errorf("HasShatterPoint = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSpider(t *testing.T) {
	g := Spider([]int{2, 3, 1})
	if g.N() != 7 || g.M() != 6 {
		t.Errorf("spider n=%d m=%d, want 7,6", g.N(), g.M())
	}
	if g.Degree(0) != 3 {
		t.Errorf("spider center degree = %d, want 3", g.Degree(0))
	}
	if g.CountCycles() != 0 {
		t.Error("spider should be a tree")
	}
}

func TestPetersen(t *testing.T) {
	g := Petersen()
	if g.N() != 10 || g.M() != 15 {
		t.Fatalf("petersen n=%d m=%d, want 10,15", g.N(), g.M())
	}
	for v := 0; v < 10; v++ {
		if g.Degree(v) != 3 {
			t.Fatalf("petersen node %d degree %d, want 3", v, g.Degree(v))
		}
	}
}

func TestDisjointUnion(t *testing.T) {
	g := graphtest.DisjointUnion(Path(3), MustCycle(4))
	if g.N() != 7 || g.M() != 6 {
		t.Errorf("union n=%d m=%d, want 7,6", g.N(), g.M())
	}
	if len(g.Components()) != 2 {
		t.Error("union should have two components")
	}
}

func TestAttachPendant(t *testing.T) {
	g, err := AttachPendant(MustCycle(4), 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 5 || g.MinDegree() != 1 {
		t.Errorf("pendant graph n=%d δ=%d, want 5,1", g.N(), g.MinDegree())
	}
	if g.Degree(4) != 1 || !g.HasEdge(2, 4) {
		t.Error("pendant not attached to node 2")
	}
	if _, err := AttachPendant(Path(2), 9); err == nil {
		t.Error("out-of-range attach accepted")
	}
}

func TestTheta(t *testing.T) {
	g, err := Theta(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.CountCycles() != 2 {
		t.Errorf("theta cycle rank = %d, want 2", g.CountCycles())
	}
}

// Property: watermelons are connected with exactly k = len(paths) endpoint
// degree and cycle rank k-1.
func TestWatermelonInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(4)
		paths := make([]int, k)
		for i := range paths {
			paths[i] = 2 + rng.Intn(4)
		}
		g := MustWatermelon(paths)
		v1, v2 := graphtest.WatermelonEndpoints()
		return g.Connected() &&
			g.Degree(v1) == k &&
			g.Degree(v2) == k &&
			g.CountCycles() == k-1 &&
			IsWatermelon(g, v1, v2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
