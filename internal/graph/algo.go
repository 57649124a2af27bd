package graph

import "fmt"

// Unreachable is the distance value reported for node pairs in different
// connected components.
const Unreachable = -1

// BFSDistances returns the distance from src to every node, with Unreachable
// (-1) for nodes in other components.
func (g *Graph) BFSDistances(src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = Unreachable
	}
	if src < 0 || src >= g.N() {
		return dist
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[v] {
			if dist[w] == Unreachable {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// Dist returns the hop distance between u and v, or Unreachable if they are
// in different components.
func (g *Graph) Dist(u, v int) int {
	return g.BFSDistances(u)[v]
}

// Ball returns the sorted set N^r(v) of nodes at distance at most r from v.
func (g *Graph) Ball(v, r int) []int {
	dist := g.BFSDistances(v)
	ball := make([]int, 0)
	for w, d := range dist {
		if d != Unreachable && d <= r {
			ball = append(ball, w)
		}
	}
	return ball
}

// Connected reports whether g is connected. The empty graph and singletons
// are connected.
func (g *Graph) Connected() bool {
	if g.N() <= 1 {
		return true
	}
	if g.N() <= 64 {
		// Allocation-free reachability with a bitmask visited set; each
		// node is pushed at most once, so the stack fits in 64 slots.
		var stack [64]int
		seen := uint64(1)
		stack[0] = 0
		top, count := 1, 1
		for top > 0 {
			top--
			v := stack[top]
			for _, w := range g.adj[v] {
				if seen&(1<<uint(w)) == 0 {
					seen |= 1 << uint(w)
					count++
					stack[top] = w
					top++
				}
			}
		}
		return count == g.N()
	}
	dist := g.BFSDistances(0)
	for _, d := range dist {
		if d == Unreachable {
			return false
		}
	}
	return true
}

// Components returns the connected components of g as sorted node lists,
// ordered by their smallest node.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.N())
	var comps [][]int
	for v := 0; v < g.N(); v++ {
		if seen[v] {
			continue
		}
		var comp []int
		queue := []int{v}
		seen[v] = true
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			comp = append(comp, x)
			for _, w := range g.adj[x] {
				if !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
		comps = append(comps, sortedCopy(comp))
	}
	return comps
}

func sortedCopy(s []int) []int {
	c := append([]int(nil), s...)
	for i := 1; i < len(c); i++ {
		for j := i; j > 0 && c[j-1] > c[j]; j-- {
			c[j-1], c[j] = c[j], c[j-1]
		}
	}
	return c
}

// Diameter returns the diameter of g (the maximum pairwise distance), or
// Unreachable if g is disconnected, or 0 if g has at most one node.
func (g *Graph) Diameter() int {
	if g.N() <= 1 {
		return 0
	}
	diam := 0
	for v := 0; v < g.N(); v++ {
		for _, d := range g.BFSDistances(v) {
			if d == Unreachable {
				return Unreachable
			}
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}

// IsCycleGraph reports whether g is a single cycle: connected, n >= 3, and
// every node has degree exactly 2.
func (g *Graph) IsCycleGraph() bool {
	if g.N() < 3 || !g.Connected() {
		return false
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 2 {
			return false
		}
	}
	return true
}

// IsPathGraph reports whether g is a simple path: connected, with exactly two
// nodes of degree 1 and the rest of degree 2 (or a single node/edge).
func (g *Graph) IsPathGraph() bool {
	if !g.Connected() {
		return false
	}
	switch g.N() {
	case 0:
		return false
	case 1:
		return true
	}
	deg1 := 0
	for v := 0; v < g.N(); v++ {
		switch g.Degree(v) {
		case 1:
			deg1++
		case 2:
		default:
			return false
		}
	}
	return deg1 == 2
}

// ValidateNode returns an error if v is not a node of g.
func (g *Graph) ValidateNode(v int) error {
	if v < 0 || v >= g.N() {
		return fmt.Errorf("node %d out of range [0,%d)", v, g.N())
	}
	return nil
}
