package graph_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	// An external test package, since graphtest imports graph.
	. "hidinglcp/internal/graph"
	"hidinglcp/internal/graph/graphtest"
)

func TestIsBipartite(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want bool
	}{
		{"empty", New(0), true},
		{"singleton", New(1), true},
		{"path", Path(6), true},
		{"even cycle", MustCycle(8), true},
		{"odd cycle", MustCycle(7), false},
		{"triangle", MustCycle(3), false},
		{"complete bipartite", graphtest.CompleteBipartite(3, 4), true},
		{"k4", Complete(4), false},
		{"grid", Grid(4, 5), true},
		{"petersen", Petersen(), false},
		{"even watermelon", MustWatermelon([]int{2, 4, 2}), true},
		{"odd watermelon", MustWatermelon([]int{2, 3}), false},
		{"union of odd and even", graphtest.DisjointUnion(MustCycle(4), MustCycle(5)), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.IsBipartite(); got != tt.want {
				t.Errorf("IsBipartite() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestTwoColoringProper(t *testing.T) {
	g := Grid(3, 5)
	color, ok := g.TwoColoring()
	if !ok {
		t.Fatal("grid reported non-bipartite")
	}
	if !g.IsProperColoring(color) {
		t.Error("TwoColoring returned improper coloring")
	}
}

func TestOddCycle(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
	}{
		{"triangle", MustCycle(3)},
		{"c5", MustCycle(5)},
		{"petersen", Petersen()},
		{"odd watermelon", MustWatermelon([]int{2, 3})},
		{"k4", Complete(4)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cyc := tt.g.OddCycle()
			if cyc == nil {
				t.Fatal("OddCycle() = nil on non-bipartite graph")
			}
			if len(cyc)%2 == 0 {
				t.Fatalf("cycle %v has even length", cyc)
			}
			for i := range cyc {
				j := (i + 1) % len(cyc)
				if !tt.g.HasEdge(cyc[i], cyc[j]) {
					t.Fatalf("cycle %v uses non-edge %d-%d", cyc, cyc[i], cyc[j])
				}
			}
			seen := make(map[int]bool)
			for _, v := range cyc {
				if seen[v] {
					t.Fatalf("cycle %v repeats node %d", cyc, v)
				}
				seen[v] = true
			}
		})
	}
}

func TestOddCycleNilOnBipartite(t *testing.T) {
	for _, g := range []*Graph{Path(5), MustCycle(6), Grid(3, 3), graphtest.CompleteBipartite(2, 3)} {
		if cyc := g.OddCycle(); cyc != nil {
			t.Errorf("OddCycle() = %v on bipartite graph %v", cyc, g)
		}
	}
}

func TestIsProperColoring(t *testing.T) {
	g := Path(3)
	tests := []struct {
		name  string
		color []int
		want  bool
	}{
		{"proper", []int{0, 1, 0}, true},
		{"improper", []int{0, 0, 1}, false},
		{"short", []int{0, 1}, false},
		{"large palette", []int{5, 9, 5}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := g.IsProperColoring(tt.color); got != tt.want {
				t.Errorf("IsProperColoring(%v) = %v, want %v", tt.color, got, tt.want)
			}
		})
	}
}

func TestKColoring(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		k    int
		want bool
	}{
		{"path 1-colorable no", Path(2), 1, false},
		{"path 2-colorable", Path(5), 2, true},
		{"c5 2-colorable no", MustCycle(5), 2, false},
		{"c5 3-colorable", MustCycle(5), 3, true},
		{"k4 3-colorable no", Complete(4), 3, false},
		{"k4 4-colorable", Complete(4), 4, true},
		{"petersen 3-colorable", Petersen(), 3, true},
		{"zero colors empty", New(0), 0, true},
		{"zero colors nonempty", New(1), 0, false},
		{"negative k", Path(2), -1, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			color, got := tt.g.KColoring(tt.k)
			if got != tt.want {
				t.Fatalf("KColoring(%d) ok = %v, want %v", tt.k, got, tt.want)
			}
			if got && !tt.g.IsProperColoring(color) {
				t.Errorf("KColoring(%d) returned improper coloring %v", tt.k, color)
			}
		})
	}
}

func TestChromaticNumber(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want int
	}{
		{"edgeless", New(4), 1},
		{"path", Path(4), 2},
		{"odd cycle", MustCycle(5), 3},
		{"k5", Complete(5), 5},
		{"petersen", Petersen(), 3},
		{"empty", New(0), 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.ChromaticNumber(); got != tt.want {
				t.Errorf("ChromaticNumber() = %d, want %d", got, tt.want)
			}
		})
	}
}

// Property: bipartite iff no odd cycle found, on random graphs.
func TestBipartiteOddCycleAgreement(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := GNP(9, 0.25, rng)
		return g.IsBipartite() == (g.OddCycle() == nil)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOddGirth(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want int
	}{
		{"empty", New(0), 0},
		{"path", Path(6), 0},
		{"even cycle", MustCycle(8), 0},
		{"odd cycle", MustCycle(9), 9},
		{"triangle", MustCycle(3), 3},
		{"k4", Complete(4), 3},
		{"petersen", Petersen(), 5},
		{"odd watermelon", MustWatermelon([]int{2, 5}), 7},
		{"union of C9 and C5", graphtest.DisjointUnion(MustCycle(9), MustCycle(5)), 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.OddGirth(); got != tt.want {
				t.Errorf("OddGirth() = %d, want %d", got, tt.want)
			}
		})
	}
}

// oddGirthByWalks is the definition-level oracle: the odd girth is the
// least odd k with a closed walk of length k, found by stepping the
// reachable-by-exactly-k-steps relation from every node.
func oddGirthByWalks(g *Graph) int {
	n := g.N()
	reach := make([][]bool, n) // reach[s][v]: some s-v walk of the current length
	for s := range reach {
		reach[s] = make([]bool, n)
		reach[s][s] = true
	}
	for k := 1; k <= n; k++ {
		for s := range reach {
			next := make([]bool, n)
			for v, ok := range reach[s] {
				if ok {
					for _, w := range g.Neighbors(v) {
						next[w] = true
					}
				}
			}
			reach[s] = next
		}
		if k%2 == 1 {
			for s := range reach {
				if reach[s][s] {
					return k
				}
			}
		}
	}
	return 0
}

// Property: OddGirth matches the closed-walk definition, is positive
// exactly on non-bipartite graphs, and never exceeds the cycle OddCycle
// finds.
func TestOddGirthProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := GNP(2+rng.Intn(10), 0.1+0.3*rng.Float64(), rng)
		girth := g.OddGirth()
		if girth != oddGirthByWalks(g) || (girth == 0) != g.IsBipartite() {
			return false
		}
		return girth == 0 || girth <= len(g.OddCycle())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: 2-coloring, when it exists, is proper.
func TestTwoColoringAlwaysProper(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := GNP(8, 0.3, rng)
		color, ok := g.TwoColoring()
		if !ok {
			return true
		}
		return g.IsProperColoring(color)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: chromatic number of a bipartite graph with at least one edge is 2.
func TestChromaticBipartite(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Random bipartite graph via random subgraph of K_{4,4}.
		g := New(8)
		for u := 0; u < 4; u++ {
			for v := 4; v < 8; v++ {
				if rng.Float64() < 0.5 {
					if err := g.AddEdge(u, v); err != nil {
						return false
					}
				}
			}
		}
		chi := g.ChromaticNumber()
		if g.M() == 0 {
			return chi <= 1
		}
		return chi == 2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKColoringBudget(t *testing.T) {
	// Unlimited budget always decides.
	_, ok, decided := Petersen().KColoringBudget(3, -1)
	if !decided || !ok {
		t.Errorf("Petersen 3-coloring: ok=%v decided=%v", ok, decided)
	}
	// A zero budget on a graph with a non-empty core cannot decide.
	_, _, decided = Complete(6).KColoringBudget(4, 0)
	if decided {
		t.Error("zero budget decided a K6 4-coloring search")
	}
	// Peeling alone decides trees without touching the budget.
	_, ok, decided = Path(10).KColoringBudget(3, 0)
	if !decided || !ok {
		t.Error("peeling should 3-color a path with zero search budget")
	}
	// k >= n shortcut.
	coloring, ok, decided := Complete(5).KColoringBudget(64, 0)
	if !decided || !ok || !Complete(5).IsProperColoring(coloring) {
		t.Error("k >= n shortcut failed")
	}
}

func TestKColoringPeelingCorrectness(t *testing.T) {
	// Graphs whose k-core is empty are fully handled by peeling; the
	// result must still be proper.
	for _, g := range []*Graph{Path(8), CompleteBinaryTree(4), Spider([]int{3, 3, 3})} {
		coloring, ok := g.KColoring(3)
		if !ok || !g.IsProperColoring(coloring) {
			t.Errorf("peeled coloring improper on %v", g)
		}
	}
}

// Property: KColoring agrees with chromatic-number facts on random graphs
// and always returns proper colorings.
func TestKColoringProperProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := GNP(9, 0.4, rng)
		for k := 1; k <= 5; k++ {
			coloring, ok := g.KColoring(k)
			if ok && !g.IsProperColoring(coloring) {
				return false
			}
			if ok {
				for _, c := range coloring {
					if c < 0 || c >= k {
						return false
					}
				}
			}
			// Monotonicity: k-colorable implies (k+1)-colorable.
			if ok {
				if _, ok2 := g.KColoring(k + 1); !ok2 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
