package graph_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	// An external test package, since graphtest imports graph.
	. "hidinglcp/internal/graph"
	"hidinglcp/internal/graph/graphtest"
)

func TestGirth(t *testing.T) {
	mustMobius := func(k int) *Graph {
		g, err := MobiusLadder(k)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	tests := []struct {
		name string
		g    *Graph
		want int
	}{
		{"tree", Path(6), Unreachable},
		{"triangle", MustCycle(3), 3},
		{"c7", MustCycle(7), 7},
		{"petersen", Petersen(), 5},
		{"k4", Complete(4), 3},
		{"grid", Grid(3, 3), 4},
		{"theta(2,3)", MustWatermelon([]int{2, 3}), 5},
		{"mobius 3", mustMobius(3), 4},
		{"forest", graphtest.DisjointUnion(Path(3), MustCycle(4)), 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.Girth(); got != tt.want {
				t.Errorf("Girth = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestCutVertices(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want []int
	}{
		{"path", Path(4), []int{1, 2}},
		{"cycle", MustCycle(5), nil},
		{"star", Star(4), []int{0}},
		{"spider", Spider([]int{2, 2}), []int{0, 1, 3}},
		{"two blocks", MustFromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 2}}), []int{2}},
		{"complete", Complete(4), nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.g.CutVertices()
			if len(got) != len(tt.want) {
				t.Fatalf("CutVertices = %v, want %v", got, tt.want)
			}
			for i := range tt.want {
				if got[i] != tt.want[i] {
					t.Fatalf("CutVertices = %v, want %v", got, tt.want)
				}
			}
		})
	}
}

// Property: v is a cut vertex iff removing it increases the component
// count — cross-validate the low-link DFS against the definition.
func TestCutVerticesDefinition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graphtest.ConnectedGNP(7, 0.3, rng)
		cuts := make(map[int]bool)
		for _, v := range g.CutVertices() {
			cuts[v] = true
		}
		base := len(g.Components())
		for v := 0; v < g.N(); v++ {
			keep := make([]int, 0, g.N()-1)
			for u := 0; u < g.N(); u++ {
				if u != v {
					keep = append(keep, u)
				}
			}
			sub, _ := g.InducedSubgraph(keep)
			increased := len(sub.Components()) > base
			if increased != cuts[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestIsTree(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want bool
	}{
		{"path", Path(5), true},
		{"star", Star(4), true},
		{"cycle", MustCycle(4), false},
		{"forest", graphtest.DisjointUnion(Path(2), Path(2)), false},
		{"empty", New(0), false},
		{"singleton", New(1), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.IsTree(); got != tt.want {
				t.Errorf("IsTree = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestComplement(t *testing.T) {
	g := Path(4)
	c := g.Complement()
	if c.M() != 6-3 {
		t.Errorf("complement edges = %d, want 3", c.M())
	}
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			if g.HasEdge(u, v) == c.HasEdge(u, v) {
				t.Errorf("edge {%d,%d} present in both or neither", u, v)
			}
		}
	}
	if cc := c.Complement(); !cc.Equal(g) {
		t.Error("double complement differs from the original")
	}
}

func TestNewGenerators(t *testing.T) {
	if g := Hypercube(3); g.N() != 8 || g.M() != 12 || !g.IsBipartite() {
		t.Errorf("Q3 malformed: %v", g)
	}
	if g := Hypercube(0); g.N() != 1 {
		t.Errorf("Q0 should be a single node: %v", g)
	}
	if g := Ladder(4); g.N() != 8 || g.M() != 10 || !g.IsBipartite() || g.MinDegree() != 2 {
		t.Errorf("ladder malformed: %v", g)
	}
	m3, err := MobiusLadder(3)
	if err != nil {
		t.Fatal(err)
	}
	if !m3.IsBipartite() || m3.MaxDegree() != 3 {
		t.Errorf("M3 should be bipartite 3-regular (K33): %v", m3)
	}
	m4, err := MobiusLadder(4)
	if err != nil {
		t.Fatal(err)
	}
	if m4.IsBipartite() {
		t.Error("M4 should be non-bipartite")
	}
	if _, err := MobiusLadder(2); err == nil {
		t.Error("M2 accepted")
	}
	w, err := Wheel(6)
	if err != nil {
		t.Fatal(err)
	}
	if w.Degree(0) != 5 || w.M() != 10 {
		t.Errorf("wheel malformed: %v", w)
	}
	if _, err := Wheel(3); err == nil {
		t.Error("W3 accepted")
	}
	cat, err := Caterpillar(3, []int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !cat.IsTree() || cat.N() != 6 || cat.MinDegree() != 1 {
		t.Errorf("caterpillar malformed: %v", cat)
	}
	if _, err := Caterpillar(0, nil); err == nil {
		t.Error("empty caterpillar accepted")
	}
	if _, err := Caterpillar(2, []int{1, 1, 1}); err == nil {
		t.Error("too many leg specs accepted")
	}
	if _, err := Caterpillar(2, []int{-1}); err == nil {
		t.Error("negative legs accepted")
	}
}

// Property: hypercubes are d-regular with girth 4 (d >= 2).
func TestHypercubeInvariants(t *testing.T) {
	for d := 2; d <= 5; d++ {
		g := Hypercube(d)
		for v := 0; v < g.N(); v++ {
			if g.Degree(v) != d {
				t.Fatalf("Q%d node %d degree %d", d, v, g.Degree(v))
			}
		}
		if g.Girth() != 4 {
			t.Errorf("Q%d girth = %d, want 4", d, g.Girth())
		}
	}
}
