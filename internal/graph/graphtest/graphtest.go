// Package graphtest holds the graph fixtures that the tests of several
// packages share: generators for the small families they check and the
// graph6 codec their fuzz harnesses read. Only _test.go files may import
// it; a root test enforces that.
package graphtest

import (
	"fmt"
	"math/rand"

	"hidinglcp/internal/graph"
)

// CompleteBipartite returns K_{a,b} with parts {0..a-1} and {a..a+b-1}.
func CompleteBipartite(a, b int) *graph.Graph {
	g := graph.New(a + b)
	for u := 0; u < a; u++ {
		for v := a; v < a+b; v++ {
			mustAddEdge(g, u, v)
		}
	}
	return g
}

// ConnectedGNP draws G(n, p) graphs until a connected one appears; it gives
// up after 1000 attempts and then returns a random tree plus GNP edges,
// which is always connected.
func ConnectedGNP(n int, p float64, rng *rand.Rand) *graph.Graph {
	for attempt := 0; attempt < 1000; attempt++ {
		if g := graph.GNP(n, p, rng); g.Connected() {
			return g
		}
	}
	g := graph.RandomTree(n, rng)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !g.HasEdge(u, v) && rng.Float64() < p {
				mustAddEdge(g, u, v)
			}
		}
	}
	return g
}

// WatermelonEndpoints returns the endpoint nodes of graphs built by
// graph.Watermelon.
func WatermelonEndpoints() (v1, v2 int) { return 0, 1 }

// DisjointUnion returns the disjoint union of gs, with nodes renumbered in
// order.
func DisjointUnion(gs ...*graph.Graph) *graph.Graph {
	n := 0
	for _, g := range gs {
		n += g.N()
	}
	u := graph.New(n)
	base := 0
	for _, g := range gs {
		for _, e := range g.Edges() {
			mustAddEdge(u, base+e[0], base+e[1])
		}
		base += g.N()
	}
	return u
}

// mustAddEdge adds an edge that is valid by construction of the caller.
func mustAddEdge(g *graph.Graph, u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(fmt.Sprintf("graphtest: generator bug: %v", err))
	}
}
