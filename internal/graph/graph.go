// Package graph provides the graph substrate underlying the locally checkable
// proof (LCP) framework: finite simple undirected graphs together with the
// port assignments and identifier assignments of the distributed LOCAL model
// (Section 2.2 of the paper), plus the algorithmic toolbox the paper's
// constructions rely on (BFS, bipartiteness, components, colorability) and
// generators for every graph family the paper mentions.
//
// Nodes are the integers 0..N()-1. Identifiers (package-level type IDs) are a
// separate injective assignment, as in the paper, so that the same structural
// graph can carry many identifier assignments.
package graph

import (
	"fmt"
	"sort"
	"strings"
)

// Graph is a finite simple undirected graph on nodes 0..n-1.
//
// The zero value is the empty graph on zero nodes. Graphs are mutable while
// being built (AddEdge) and are treated as immutable by the rest of the
// library once constructed.
type Graph struct {
	// m is the number of edges, kept by everything that writes adj. The
	// node count is len(adj), which keeps a Graph at 32 bytes.
	m   int
	adj [][]int // adj[v] is sorted ascending and loop-free
}

// New returns an edgeless graph on n nodes.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{adj: make([][]int, n)}
}

// FromEdges builds a graph on n nodes with the given edges.
// It returns an error if any endpoint is out of range, an edge is a loop, or
// an edge is duplicated.
func FromEdges(n int, edges [][2]int) (*Graph, error) {
	g := New(n)
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			return nil, fmt.Errorf("edge %v: %w", e, err)
		}
	}
	return g, nil
}

// MustFromEdges is FromEdges but panics on error. It is intended for
// statically known graphs in tests and examples.
func MustFromEdges(n int, edges [][2]int) *Graph {
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(fmt.Sprintf("graph.MustFromEdges: %v", err))
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// AddEdge inserts the undirected edge {u, v}.
// It returns an error if u or v is out of range, u == v, or the edge already
// exists.
func (g *Graph) AddEdge(u, v int) error {
	if u < 0 || u >= g.N() || v < 0 || v >= g.N() {
		return fmt.Errorf("node out of range: have {%d,%d}, want within [0,%d)", u, v, g.N())
	}
	if u == v {
		return fmt.Errorf("loop at node %d not allowed", u)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("duplicate edge {%d,%d}", u, v)
	}
	g.adj[u] = insertSorted(g.adj[u], v)
	g.adj[v] = insertSorted(g.adj[v], u)
	g.m++
	return nil
}

func insertSorted(s []int, x int) []int {
	i := sort.SearchInts(s, x)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = x
	return s
}

// HasEdge reports whether the undirected edge {u, v} is present.
// Out-of-range endpoints simply yield false.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.N() || v < 0 || v >= g.N() || u == v {
		return false
	}
	nb := g.adj[u]
	i := sort.SearchInts(nb, v)
	return i < len(nb) && nb[i] == v
}

// Neighbors returns the sorted neighbor list of v. The returned slice is
// owned by the graph and must not be modified.
func (g *Graph) Neighbors(v int) []int { return g.adj[v] }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// MinDegree returns the minimum degree δ(G), or 0 for the empty graph.
func (g *Graph) MinDegree() int {
	if g.N() == 0 {
		return 0
	}
	min := g.Degree(0)
	for v := 1; v < g.N(); v++ {
		if d := g.Degree(v); d < min {
			min = d
		}
	}
	return min
}

// MaxDegree returns the maximum degree Δ(G), or 0 for the empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// Edges returns all edges as pairs {u, v} with u < v, in lexicographic order.
func (g *Graph) Edges() [][2]int {
	edges := make([][2]int, 0, g.M())
	for u := 0; u < g.N(); u++ {
		for _, v := range g.adj[u] {
			if u < v {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	return edges
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.N())
	for v := 0; v < g.N(); v++ {
		c.adj[v] = append([]int(nil), g.adj[v]...)
	}
	c.m = g.m
	return c
}

// InducedSubgraph returns the subgraph of g induced by keep, together with
// the mapping orig such that node i of the subgraph corresponds to node
// orig[i] of g. Duplicate entries in keep are ignored; the mapping is sorted.
func (g *Graph) InducedSubgraph(keep []int) (*Graph, []int) {
	present := make(map[int]bool, len(keep))
	for _, v := range keep {
		if v >= 0 && v < g.N() {
			present[v] = true
		}
	}
	orig := make([]int, 0, len(present))
	for v := range present {
		orig = append(orig, v)
	}
	sort.Ints(orig)
	index := make(map[int]int, len(orig))
	for i, v := range orig {
		index[v] = i
	}
	sub := New(len(orig))
	for i, v := range orig {
		for _, w := range g.adj[v] {
			if j, ok := index[w]; ok && i < j {
				// Ignoring the error: endpoints are in range, no loops, no
				// duplicates by construction.
				_ = sub.AddEdge(i, j)
			}
		}
	}
	return sub, orig
}

// DeleteClosedNeighborhood returns G - N[v]: the subgraph induced by all
// nodes other than v and its neighbors, plus the original-node mapping.
func (g *Graph) DeleteClosedNeighborhood(v int) (*Graph, []int) {
	drop := make(map[int]bool, g.Degree(v)+1)
	drop[v] = true
	for _, u := range g.adj[v] {
		drop[u] = true
	}
	keep := make([]int, 0, g.N())
	for u := 0; u < g.N(); u++ {
		if !drop[u] {
			keep = append(keep, u)
		}
	}
	return g.InducedSubgraph(keep)
}

// Equal reports whether g and h are identical as labeled graphs (same node
// count and same edge set).
func (g *Graph) Equal(h *Graph) bool {
	if g.N() != h.N() {
		return false
	}
	for v := 0; v < g.N(); v++ {
		if len(g.adj[v]) != len(h.adj[v]) {
			return false
		}
		for i, w := range g.adj[v] {
			if h.adj[v][i] != w {
				return false
			}
		}
	}
	return true
}

// String renders the graph compactly, e.g. "G(n=4; 0-1 1-2 2-3)".
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "G(n=%d;", g.N())
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, " %d-%d", e[0], e[1])
	}
	b.WriteString(")")
	return b.String()
}

// Key returns a deterministic string key identifying the labeled graph.
// Two graphs have the same key iff they are Equal.
func (g *Graph) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n%d", g.N())
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "|%d,%d", e[0], e[1])
	}
	return b.String()
}
