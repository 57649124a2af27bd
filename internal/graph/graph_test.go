package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	g := New(5)
	if g.N() != 5 {
		t.Errorf("N() = %d, want 5", g.N())
	}
	if g.M() != 0 {
		t.Errorf("M() = %d, want 0", g.M())
	}
	if g.MinDegree() != 0 || g.MaxDegree() != 0 {
		t.Errorf("degrees = (%d,%d), want (0,0)", g.MinDegree(), g.MaxDegree())
	}
}

func TestNewNegative(t *testing.T) {
	g := New(-3)
	if g.N() != 0 {
		t.Errorf("N() = %d, want 0", g.N())
	}
}

func TestAddEdge(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatalf("AddEdge(0,1): %v", err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge {0,1} should be present symmetrically")
	}
	if g.HasEdge(0, 2) {
		t.Error("edge {0,2} should be absent")
	}
	if g.M() != 1 {
		t.Errorf("M() = %d, want 1", g.M())
	}
}

func TestAddEdgeErrors(t *testing.T) {
	tests := []struct {
		name string
		u, v int
	}{
		{"loop", 1, 1},
		{"negative", -1, 0},
		{"out of range", 0, 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g := New(3)
			if err := g.AddEdge(tt.u, tt.v); err == nil {
				t.Errorf("AddEdge(%d,%d) succeeded, want error", tt.u, tt.v)
			}
		})
	}
	t.Run("duplicate", func(t *testing.T) {
		g := New(3)
		if err := g.AddEdge(0, 1); err != nil {
			t.Fatal(err)
		}
		if err := g.AddEdge(1, 0); err == nil {
			t.Error("duplicate edge accepted")
		}
	})
}

func TestFromEdges(t *testing.T) {
	g, err := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 3 {
		t.Errorf("M() = %d, want 3", g.M())
	}
	if _, err := FromEdges(2, [][2]int{{0, 5}}); err == nil {
		t.Error("out-of-range edge accepted")
	}
}

// TestEdgeCount: M is a counter kept by every writer of the adjacency, so
// it must match a scan of the edges on each graph EnumGraphs hands out
// (one Graph, rewritten per mask) and on a Clone.
func TestEdgeCount(t *testing.T) {
	graphs := 0
	EnumGraphs(5, func(g *Graph) bool {
		graphs++
		if g.M() != len(g.Edges()) {
			t.Fatalf("%v: M() = %d, want %d", g, g.M(), len(g.Edges()))
		}
		if c := g.Clone(); c.M() != g.M() {
			t.Fatalf("%v: clone has M() = %d, want %d", g, c.M(), g.M())
		}
		return true
	})
	if graphs != 1<<10 {
		t.Errorf("enumerated %d graphs, want %d", graphs, 1<<10)
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := MustFromEdges(5, [][2]int{{2, 4}, {2, 0}, {2, 3}, {2, 1}})
	nb := g.Neighbors(2)
	want := []int{0, 1, 3, 4}
	if len(nb) != len(want) {
		t.Fatalf("Neighbors(2) = %v, want %v", nb, want)
	}
	for i := range want {
		if nb[i] != want[i] {
			t.Fatalf("Neighbors(2) = %v, want %v", nb, want)
		}
	}
}

func TestDegrees(t *testing.T) {
	g := Star(5)
	if g.Degree(0) != 4 {
		t.Errorf("center degree = %d, want 4", g.Degree(0))
	}
	if g.MinDegree() != 1 || g.MaxDegree() != 4 {
		t.Errorf("degrees = (%d,%d), want (1,4)", g.MinDegree(), g.MaxDegree())
	}
}

func TestCloneIndependence(t *testing.T) {
	g := Path(4)
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatal("clone differs from original")
	}
	if err := c.AddEdge(0, 3); err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(0, 3) {
		t.Error("mutating clone mutated original")
	}
}

func TestEqualAndKey(t *testing.T) {
	a := Path(4)
	b := Path(4)
	c := MustCycle(4)
	if !a.Equal(b) {
		t.Error("identical paths not Equal")
	}
	if a.Equal(c) {
		t.Error("path Equal to cycle")
	}
	if a.Key() != b.Key() {
		t.Error("identical graphs have different keys")
	}
	if a.Key() == c.Key() {
		t.Error("distinct graphs share a key")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := MustCycle(5)
	sub, orig := g.InducedSubgraph([]int{0, 1, 2, 4})
	if sub.N() != 4 {
		t.Fatalf("sub.N() = %d, want 4", sub.N())
	}
	// Edges 0-1, 1-2, 4-0 survive; 2-3 and 3-4 do not.
	if sub.M() != 3 {
		t.Errorf("sub.M() = %d, want 3", sub.M())
	}
	wantOrig := []int{0, 1, 2, 4}
	for i, v := range wantOrig {
		if orig[i] != v {
			t.Errorf("orig = %v, want %v", orig, wantOrig)
			break
		}
	}
}

func TestInducedSubgraphDuplicatesAndOutOfRange(t *testing.T) {
	g := Path(3)
	sub, orig := g.InducedSubgraph([]int{1, 1, 2, 7, -1})
	if sub.N() != 2 || sub.M() != 1 {
		t.Errorf("sub = %v (orig %v), want 2 nodes 1 edge", sub, orig)
	}
}

func TestDeleteClosedNeighborhood(t *testing.T) {
	// Path 0-1-2-3-4: deleting N[2] leaves {0,1} and {3,4}? No: N[2]={1,2,3},
	// leaving {0} and {4}, two components -> 2 is a shatter point.
	g := Path(5)
	rest, orig := g.DeleteClosedNeighborhood(2)
	if rest.N() != 2 {
		t.Fatalf("rest.N() = %d, want 2", rest.N())
	}
	if len(rest.Components()) != 2 {
		t.Errorf("components = %d, want 2", len(rest.Components()))
	}
	if orig[0] != 0 || orig[1] != 4 {
		t.Errorf("orig = %v, want [0 4]", orig)
	}
}

func TestString(t *testing.T) {
	g := Path(3)
	want := "G(n=3; 0-1 1-2)"
	if got := g.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestEdges(t *testing.T) {
	g := MustCycle(4)
	edges := g.Edges()
	if len(edges) != 4 {
		t.Fatalf("len(Edges()) = %d, want 4", len(edges))
	}
	for _, e := range edges {
		if e[0] >= e[1] {
			t.Errorf("edge %v not normalized u < v", e)
		}
	}
}

// Property: M() equals the number reported by Edges() on random graphs.
func TestEdgeCountProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := GNP(8, 0.4, rng)
		return g.M() == len(g.Edges())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: HasEdge is symmetric on random graphs.
func TestHasEdgeSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := GNP(7, 0.5, rng)
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				if g.HasEdge(u, v) != g.HasEdge(v, u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: degree sums to twice the edge count.
func TestHandshakeLemma(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := GNP(9, 0.3, rng)
		sum := 0
		for v := 0; v < g.N(); v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
