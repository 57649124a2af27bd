package forgetful

import (
	"testing"

	"hidinglcp/internal/graph"
)

func TestEscapePathLongCycle(t *testing.T) {
	// On a long cycle, escaping from v away from u is walking the other way.
	g := graph.MustCycle(12)
	p := EscapePath(g, 1, 0, 2)
	if p == nil {
		t.Fatal("no escape path on C12")
	}
	if len(p) != 3 || p[0] != 1 {
		t.Fatalf("path %v, want length-2 path from 1", p)
	}
	// It must walk away: 1 -> 2 -> 3.
	if p[1] != 2 || p[2] != 3 {
		t.Errorf("path %v, want [1 2 3]", p)
	}
}

func TestEscapePathRadiusZero(t *testing.T) {
	g := graph.Path(3)
	p := EscapePath(g, 1, 0, 0)
	if len(p) != 1 || p[0] != 1 {
		t.Errorf("radius-0 escape = %v, want [1]", p)
	}
}

func TestEscapePathLeafFails(t *testing.T) {
	// A leaf's only neighbor is u itself: no escape.
	g := graph.Path(5)
	if p := EscapePath(g, 0, 1, 1); p != nil {
		t.Errorf("escape from a leaf = %v, want nil", p)
	}
}

func TestIsRForgetful(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		r    int
		want bool
	}{
		{"long odd cycle r1", graph.MustCycle(9), 1, true},
		{"long even cycle r1", graph.MustCycle(10), 1, true},
		{"short cycle r1", graph.MustCycle(3), 1, false},
		// C5 has diameter 2 < 2r+1 = 3, so by Lemma 2.1 it cannot be
		// 1-forgetful: walking away from u's 1-ball stalls at distance 2.
		{"C5 r1", graph.MustCycle(5), 1, false},
		{"C7 r1", graph.MustCycle(7), 1, true},
		{"C5 r2", graph.MustCycle(5), 2, false},
		{"C12 r2", graph.MustCycle(12), 2, true},
		{"path r1", graph.Path(6), 1, false}, // leaves cannot escape
		{"complete r1", graph.Complete(5), 1, false},
		{"grid 4x4 r1", graph.Grid(4, 4), 1, false}, // corner boundary effect
		{"star", graph.Star(5), 1, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, fv, fu := IsRForgetful(tt.g, tt.r)
			if got != tt.want {
				t.Errorf("IsRForgetful = %v (witness %d,%d), want %v", got, fv, fu, tt.want)
			}
		})
	}
}

func TestTorusForgetful(t *testing.T) {
	// Large even tori: bipartite, min degree 4, not cycles, and r-forgetful
	// — exactly the graphs Theorem 1.2's class needs to be non-empty.
	// (Smaller tori like 4x6 fail: the wrap-around makes some escape
	// direction re-approach u's ball.)
	g, err := graph.Torus(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsBipartite() {
		t.Fatal("6x6 torus should be bipartite")
	}
	ok, fv, fu := IsRForgetful(g, 1)
	if !ok {
		t.Errorf("6x6 torus not 1-forgetful (witness %d,%d)", fv, fu)
	}
	small, _ := graph.Torus(4, 4)
	if ok, _, _ := IsRForgetful(small, 1); ok {
		t.Error("4x4 torus should not be 1-forgetful (wrap-around too tight)")
	}
}

func TestCheckLemma21(t *testing.T) {
	// Every r-forgetful graph in the corpus has diameter >= 2r+1.
	graphs := []*graph.Graph{
		graph.MustCycle(5), graph.MustCycle(9), graph.MustCycle(12),
		graph.Grid(4, 4), graph.Complete(4), graph.Path(7),
	}
	if tor, err := graph.Torus(4, 6); err == nil {
		graphs = append(graphs, tor)
	}
	for _, g := range graphs {
		for r := 1; r <= 2; r++ {
			if err := CheckLemma21(g, r); err != nil {
				t.Errorf("Lemma 2.1 violated: %v", err)
			}
		}
	}
}

func TestCheckLemma21Exhaustive(t *testing.T) {
	// Lemma 2.1 on every connected graph with up to 6 nodes, r = 1.
	graph.EnumConnectedGraphs(6, func(g *graph.Graph) bool {
		if err := CheckLemma21(g, 1); err != nil {
			t.Errorf("Lemma 2.1 violated: %v", err)
			return false
		}
		return true
	})
}

func TestFarNode(t *testing.T) {
	g := graph.MustCycle(12)
	z := FarNode(g, 0, 1, 1)
	if z < 0 {
		t.Fatal("no far node on C12")
	}
	if g.Dist(z, 0) <= 2 || g.Dist(z, 1) <= 2 {
		t.Errorf("far node %d too close", z)
	}
	if z := FarNode(graph.MustCycle(4), 0, 1, 1); z >= 0 {
		t.Errorf("C4 has no far node, got %d", z)
	}
}

func TestEscapeWalk(t *testing.T) {
	g := graph.MustCycle(12)
	walk, err := EscapeWalk(g, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !IsClosedWalk(g, walk) {
		t.Fatalf("walk %v not closed", walk)
	}
	if (len(walk)-1)%2 != 0 {
		t.Errorf("walk %v has odd length in a bipartite host", walk)
	}
	if !IsNonBacktracking(walk) {
		t.Errorf("walk %v backtracks", walk)
	}
	if walk[0] != 0 || walk[1] != 1 {
		t.Errorf("walk %v does not start with edge u-v", walk)
	}
}

func TestEscapeWalkOnTorus(t *testing.T) {
	g, err := graph.Torus(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	walk, err := EscapeWalk(g, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !IsClosedWalk(g, walk) || !IsNonBacktracking(walk) {
		t.Errorf("torus walk %v invalid", walk)
	}
	if (len(walk)-1)%2 != 0 {
		t.Errorf("walk %v has odd length in a bipartite torus", walk)
	}
}

func TestEscapeWalkErrors(t *testing.T) {
	if _, err := EscapeWalk(graph.MustCycle(6), 0, 2, 1); err == nil {
		t.Error("non-adjacent endpoints accepted")
	}
	if _, err := EscapeWalk(graph.Path(6), 1, 2, 1); err == nil {
		t.Error("min degree 1 host accepted")
	}
	if _, err := EscapeWalk(graph.MustCycle(4), 0, 1, 1); err == nil {
		t.Error("C4 lacks a far node; expected error")
	}
}

func TestIsClosedWalk(t *testing.T) {
	g := graph.MustCycle(4)
	tests := []struct {
		name string
		walk []int
		want bool
	}{
		{"closed square", []int{0, 1, 2, 3, 0}, true},
		{"open", []int{0, 1, 2}, false},
		{"non-edge", []int{0, 2, 0}, false},
		{"too short", []int{0}, false},
		{"back and forth", []int{0, 1, 0}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := IsClosedWalk(g, tt.walk); got != tt.want {
				t.Errorf("IsClosedWalk(%v) = %v, want %v", tt.walk, got, tt.want)
			}
		})
	}
}

func TestIsNonBacktracking(t *testing.T) {
	tests := []struct {
		name string
		walk []int
		want bool
	}{
		{"square", []int{0, 1, 2, 3, 0}, true},
		{"pendulum", []int{0, 1, 0}, false},
		{"backtrack inside", []int{0, 1, 2, 1, 0}, false},
		{"open walk", []int{0, 1, 2}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := IsNonBacktracking(tt.walk); got != tt.want {
				t.Errorf("IsNonBacktracking(%v) = %v, want %v", tt.walk, got, tt.want)
			}
		})
	}
}

// IsClosedWalk reports whether walk is a closed walk of g (consecutive
// nodes adjacent, first node = last node, length >= 1).
func IsClosedWalk(g *graph.Graph, walk []int) bool {
	if len(walk) < 2 || walk[0] != walk[len(walk)-1] {
		return false
	}
	for i := 0; i+1 < len(walk); i++ {
		if !g.HasEdge(walk[i], walk[i+1]) {
			return false
		}
	}
	return true
}
