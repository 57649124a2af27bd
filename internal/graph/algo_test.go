package graph_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	// An external test package, since graphtest imports graph.
	. "hidinglcp/internal/graph"
	"hidinglcp/internal/graph/graphtest"
)

func TestBFSDistancesPath(t *testing.T) {
	g := Path(5)
	dist := g.BFSDistances(0)
	for v, want := range []int{0, 1, 2, 3, 4} {
		if dist[v] != want {
			t.Errorf("dist[%d] = %d, want %d", v, dist[v], want)
		}
	}
}

func TestBFSDistancesDisconnected(t *testing.T) {
	g := graphtest.DisjointUnion(Path(2), Path(2))
	dist := g.BFSDistances(0)
	if dist[2] != Unreachable || dist[3] != Unreachable {
		t.Errorf("dist = %v, want unreachable for nodes 2,3", dist)
	}
}

func TestDist(t *testing.T) {
	g := MustCycle(6)
	tests := []struct{ u, v, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 3, 3}, {0, 5, 1}, {1, 4, 3},
	}
	for _, tt := range tests {
		if got := g.Dist(tt.u, tt.v); got != tt.want {
			t.Errorf("Dist(%d,%d) = %d, want %d", tt.u, tt.v, got, tt.want)
		}
	}
}

func TestBall(t *testing.T) {
	g := Path(7)
	ball := g.Ball(3, 2)
	want := []int{1, 2, 3, 4, 5}
	if len(ball) != len(want) {
		t.Fatalf("Ball(3,2) = %v, want %v", ball, want)
	}
	for i := range want {
		if ball[i] != want[i] {
			t.Fatalf("Ball(3,2) = %v, want %v", ball, want)
		}
	}
}

func TestShortestPath(t *testing.T) {
	g := MustCycle(6)
	p := g.ShortestPath(0, 3)
	if len(p) != 4 {
		t.Fatalf("path %v, want length-3 path", p)
	}
	if p[0] != 0 || p[len(p)-1] != 3 {
		t.Errorf("path %v does not run 0..3", p)
	}
	for i := 0; i+1 < len(p); i++ {
		if !g.HasEdge(p[i], p[i+1]) {
			t.Errorf("path %v uses non-edge %d-%d", p, p[i], p[i+1])
		}
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := graphtest.DisjointUnion(Path(2), Path(2))
	if p := g.ShortestPath(0, 3); p != nil {
		t.Errorf("path across components = %v, want nil", p)
	}
}

func TestConnected(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want bool
	}{
		{"empty", New(0), true},
		{"singleton", New(1), true},
		{"two isolated", New(2), false},
		{"path", Path(5), true},
		{"union", graphtest.DisjointUnion(Path(3), Path(2)), false},
		{"petersen", Petersen(), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.Connected(); got != tt.want {
				t.Errorf("Connected() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestComponents(t *testing.T) {
	g := graphtest.DisjointUnion(Path(3), MustCycle(3), New(1))
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3", len(comps))
	}
	sizes := []int{len(comps[0]), len(comps[1]), len(comps[2])}
	if sizes[0] != 3 || sizes[1] != 3 || sizes[2] != 1 {
		t.Errorf("component sizes = %v, want [3 3 1]", sizes)
	}
}

func TestDiameter(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want int
	}{
		{"singleton", New(1), 0},
		{"path5", Path(5), 4},
		{"cycle6", MustCycle(6), 3},
		{"cycle7", MustCycle(7), 3},
		{"complete4", Complete(4), 1},
		{"grid3x4", Grid(3, 4), 5},
		{"disconnected", graphtest.DisjointUnion(Path(2), Path(2)), Unreachable},
		{"petersen", Petersen(), 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.Diameter(); got != tt.want {
				t.Errorf("Diameter() = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestIsCycleGraph(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want bool
	}{
		{"c3", MustCycle(3), true},
		{"c8", MustCycle(8), true},
		{"path", Path(4), false},
		{"two cycles", graphtest.DisjointUnion(MustCycle(3), MustCycle(3)), false},
		{"theta", MustWatermelon([]int{2, 2, 2}), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.IsCycleGraph(); got != tt.want {
				t.Errorf("IsCycleGraph() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestIsPathGraph(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want bool
	}{
		{"p1", Path(1), true},
		{"p2", Path(2), true},
		{"p6", Path(6), true},
		{"cycle", MustCycle(4), false},
		{"star", Star(4), false},
		{"empty", New(0), false},
		{"disconnected", graphtest.DisjointUnion(Path(2), Path(2)), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.IsPathGraph(); got != tt.want {
				t.Errorf("IsPathGraph() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestCountCycles(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want int
	}{
		{"tree", Path(6), 0},
		{"cycle", MustCycle(5), 1},
		{"theta", MustWatermelon([]int{2, 2, 2}), 2},
		{"k4", Complete(4), 3},
		{"forest", graphtest.DisjointUnion(Path(3), Path(4)), 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.CountCycles(); got != tt.want {
				t.Errorf("CountCycles() = %d, want %d", got, tt.want)
			}
		})
	}
}

// Property: BFS distances satisfy the triangle inequality along edges.
func TestBFSEdgeLipschitz(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graphtest.ConnectedGNP(8, 0.35, rng)
		dist := g.BFSDistances(0)
		for _, e := range g.Edges() {
			d := dist[e[0]] - dist[e[1]]
			if d < -1 || d > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ShortestPath length equals Dist.
func TestShortestPathMatchesDist(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graphtest.ConnectedGNP(7, 0.4, rng)
		u, v := rng.Intn(7), rng.Intn(7)
		p := g.ShortestPath(u, v)
		return len(p)-1 == g.Dist(u, v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
