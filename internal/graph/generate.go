package graph

import (
	"fmt"
	"math/rand"
)

// Path returns the path graph on n >= 1 nodes 0-1-2-...-(n-1).
func Path(n int) *Graph {
	g := New(n)
	for v := 0; v+1 < n; v++ {
		mustAddEdge(g, v, v+1)
	}
	return g
}

// Cycle returns the cycle graph on n >= 3 nodes 0-1-...-(n-1)-0.
func Cycle(n int) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("cycle needs at least 3 nodes, got %d", n)
	}
	g := Path(n)
	mustAddEdge(g, n-1, 0)
	return g, nil
}

// MustCycle is Cycle but panics on error.
func MustCycle(n int) *Graph {
	g, err := Cycle(n)
	if err != nil {
		panic(fmt.Sprintf("graph.MustCycle: %v", err))
	}
	return g
}

// Star returns the star graph K_{1,n-1} with center 0.
func Star(n int) *Graph {
	g := New(n)
	for v := 1; v < n; v++ {
		mustAddEdge(g, 0, v)
	}
	return g
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			mustAddEdge(g, u, v)
		}
	}
	return g
}

// Grid returns the rows x cols grid graph. Node (r, c) is r*cols + c.
func Grid(rows, cols int) *Graph {
	g := New(rows * cols)
	at := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				mustAddEdge(g, at(r, c), at(r, c+1))
			}
			if r+1 < rows {
				mustAddEdge(g, at(r, c), at(r+1, c))
			}
		}
	}
	return g
}

// Torus returns the rows x cols toroidal grid (wrap-around in both
// dimensions). Requires rows, cols >= 3 so that the result is simple.
func Torus(rows, cols int) (*Graph, error) {
	if rows < 3 || cols < 3 {
		return nil, fmt.Errorf("torus needs both dimensions >= 3, got %dx%d", rows, cols)
	}
	g := New(rows * cols)
	at := func(r, c int) int { return (r%rows)*cols + (c % cols) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			mustAddEdge(g, at(r, c), at(r, c+1))
			mustAddEdge(g, at(r, c), at(r+1, c))
		}
	}
	return g, nil
}

// CompleteBinaryTree returns the complete binary tree with the given number
// of levels (level 1 is a single root).
func CompleteBinaryTree(levels int) *Graph {
	if levels < 1 {
		return New(0)
	}
	n := (1 << levels) - 1
	g := New(n)
	for v := 1; v < n; v++ {
		mustAddEdge(g, v, (v-1)/2)
	}
	return g
}

// RandomTree returns a uniformly random labeled tree on n nodes drawn from
// the given source (via a Prüfer-like attachment process; not exactly
// uniform, but well spread and deterministic per seed).
func RandomTree(n int, rng *rand.Rand) *Graph {
	g := New(n)
	for v := 1; v < n; v++ {
		mustAddEdge(g, v, rng.Intn(v))
	}
	return g
}

// GNP returns an Erdős–Rényi graph G(n, p) drawn from rng.
func GNP(n int, p float64, rng *rand.Rand) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				mustAddEdge(g, u, v)
			}
		}
	}
	return g
}

// Watermelon returns the watermelon graph (Section 7.2) with endpoints
// v1 = 0 and v2 = 1 joined by len(pathLens) internally disjoint paths; path i
// has pathLens[i] edges (so pathLens[i]-1 internal nodes). Every length must
// be at least 2 so that the paths are internally disjoint and the graph is
// simple.
//
// Internal nodes are numbered 2, 3, ... path by path in order.
func Watermelon(pathLens []int) (*Graph, error) {
	if len(pathLens) < 1 {
		return nil, fmt.Errorf("watermelon needs at least one path")
	}
	n := 2
	for i, L := range pathLens {
		if L < 2 {
			return nil, fmt.Errorf("path %d has length %d, want >= 2", i, L)
		}
		n += L - 1
	}
	g := New(n)
	next := 2
	for _, L := range pathLens {
		prev := 0 // v1
		for j := 0; j < L-1; j++ {
			mustAddEdge(g, prev, next)
			prev = next
			next++
		}
		mustAddEdge(g, prev, 1) // v2
	}
	return g, nil
}

// MustWatermelon is Watermelon but panics on error.
func MustWatermelon(pathLens []int) *Graph {
	g, err := Watermelon(pathLens)
	if err != nil {
		panic(fmt.Sprintf("graph.MustWatermelon: %v", err))
	}
	return g
}

// IsWatermelon reports whether g is a watermelon graph with the given
// endpoints: all other nodes have degree 2, the endpoints are nonadjacent...
// Precisely: g is connected, v1 != v2, deg(v1) = deg(v2) = number of paths,
// every other node has degree 2, and removing v1 and v2 leaves exactly
// deg(v1) path components each adjacent to both endpoints.
func IsWatermelon(g *Graph, v1, v2 int) bool {
	if v1 == v2 || v1 < 0 || v2 < 0 || v1 >= g.N() || v2 >= g.N() || !g.Connected() {
		return false
	}
	if g.HasEdge(v1, v2) {
		// Paths must have length at least 2.
		return false
	}
	k := g.Degree(v1)
	if k < 1 || g.Degree(v2) != k {
		return false
	}
	for v := 0; v < g.N(); v++ {
		if v != v1 && v != v2 && g.Degree(v) != 2 {
			return false
		}
	}
	rest, orig := g.InducedSubgraph(without(g.N(), v1, v2))
	comps := rest.Components()
	if len(comps) != k {
		return false
	}
	for _, comp := range comps {
		sub, subOrig := rest.InducedSubgraph(comp)
		if !sub.IsPathGraph() {
			return false
		}
		touches1, touches2 := false, false
		for _, v := range subOrig {
			w := orig[v]
			if g.HasEdge(w, v1) {
				touches1 = true
			}
			if g.HasEdge(w, v2) {
				touches2 = true
			}
		}
		if !touches1 || !touches2 {
			return false
		}
	}
	return true
}

func without(n int, drop ...int) []int {
	dropSet := make(map[int]bool, len(drop))
	for _, d := range drop {
		dropSet[d] = true
	}
	keep := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if !dropSet[v] {
			keep = append(keep, v)
		}
	}
	return keep
}

// HasShatterPoint reports whether g admits a shatter point (Section 7.1): a
// node v such that G - N[v] has at least two connected components. It returns
// the first such node, or -1.
func HasShatterPoint(g *Graph) int {
	for v := 0; v < g.N(); v++ {
		rest, _ := g.DeleteClosedNeighborhood(v)
		if len(rest.Components()) >= 2 {
			return v
		}
	}
	return -1
}

// Spider returns a spider graph: a center node 0 with legs legs, where leg i
// is a path with legLens[i] edges hanging off the center. Spiders with at
// least two legs of length >= 2 have a shatter point at the center.
func Spider(legLens []int) *Graph {
	n := 1
	for _, L := range legLens {
		n += L
	}
	g := New(n)
	next := 1
	for _, L := range legLens {
		prev := 0
		for j := 0; j < L; j++ {
			mustAddEdge(g, prev, next)
			prev = next
			next++
		}
	}
	return g
}

// Petersen returns the Petersen graph: 3-regular, girth 5, not bipartite,
// a handy no-instance for 2-coloring.
func Petersen() *Graph {
	g := New(10)
	for v := 0; v < 5; v++ {
		mustAddEdge(g, v, (v+1)%5) // outer cycle
		mustAddEdge(g, v, v+5)     // spokes
		mustAddEdge(g, v+5, (v+2)%5+5)
	}
	return g
}

// AttachPendant returns a copy of g with one fresh degree-1 node attached to
// v, yielding a graph with δ(G) = 1 as required by the class H1 of
// Theorem 1.1. The pendant node is the last node of the result.
func AttachPendant(g *Graph, v int) (*Graph, error) {
	if err := g.ValidateNode(v); err != nil {
		return nil, err
	}
	h := New(g.N() + 1)
	for _, e := range g.Edges() {
		mustAddEdge(h, e[0], e[1])
	}
	mustAddEdge(h, v, g.N())
	return h, nil
}

// mustAddEdge adds an edge that is valid by construction of the caller.
func mustAddEdge(g *Graph, u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(fmt.Sprintf("graph: internal generator bug: %v", err))
	}
}
