package graph

import (
	"fmt"
	"sort"
)

// The graph algorithms and generators in this file serve only tests: each
// is checked by its own test, and several act as oracles or fixtures for
// the tests of the production code.

// Girth returns the length of a shortest cycle of g, or Unreachable (-1)
// for forests. Computed by BFS from every node (O(n·m)).
func (g *Graph) Girth() int {
	best := -1
	for s := 0; s < g.N(); s++ {
		dist := make([]int, g.N())
		parent := make([]int, g.N())
		for i := range dist {
			dist[i] = Unreachable
			parent[i] = -1
		}
		dist[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range g.adj[v] {
				if dist[w] == Unreachable {
					dist[w] = dist[v] + 1
					parent[w] = v
					queue = append(queue, w)
					continue
				}
				if w == parent[v] {
					continue
				}
				// Non-tree edge: cycle through s of length at most
				// dist[v] + dist[w] + 1.
				cyc := dist[v] + dist[w] + 1
				if best == -1 || cyc < best {
					best = cyc
				}
			}
		}
	}
	if best == -1 {
		return Unreachable
	}
	return best
}

// CutVertices returns the articulation points of g (nodes whose removal
// increases the number of connected components), sorted ascending, via the
// classical low-link DFS.
func (g *Graph) CutVertices() []int {
	disc := make([]int, g.N())
	low := make([]int, g.N())
	for i := range disc {
		disc[i] = -1
	}
	isCut := make([]bool, g.N())
	timer := 0
	var dfs func(v, parent int)
	dfs = func(v, parent int) {
		disc[v] = timer
		low[v] = timer
		timer++
		children := 0
		for _, w := range g.adj[v] {
			if w == parent {
				continue
			}
			if disc[w] != -1 {
				if disc[w] < low[v] {
					low[v] = disc[w]
				}
				continue
			}
			children++
			dfs(w, v)
			if low[w] < low[v] {
				low[v] = low[w]
			}
			if parent != -1 && low[w] >= disc[v] {
				isCut[v] = true
			}
		}
		if parent == -1 && children > 1 {
			isCut[v] = true
		}
	}
	for v := 0; v < g.N(); v++ {
		if disc[v] == -1 {
			dfs(v, -1)
		}
	}
	var out []int
	for v, c := range isCut {
		if c {
			out = append(out, v)
		}
	}
	return out
}

// IsTree reports whether g is a tree: connected and acyclic.
func (g *Graph) IsTree() bool {
	return g.Connected() && g.M() == g.N()-1 && g.N() > 0
}

// Complement returns the complement graph of g.
func (g *Graph) Complement() *Graph {
	c := New(g.N())
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if !g.HasEdge(u, v) {
				mustAddEdge(c, u, v)
			}
		}
	}
	return c
}

// Isomorphic reports whether g and h are isomorphic, by degree-pruned
// backtracking. Exponential in the worst case; intended for the small graphs
// this library enumerates.
func Isomorphic(g, h *Graph) bool {
	if g.N() != h.N() || g.M() != h.M() {
		return false
	}
	n := g.N()
	if n == 0 {
		return true
	}
	if !sameDegreeSequence(g, h) {
		return false
	}
	mapping := make([]int, n) // mapping[v in g] = node in h
	used := make([]bool, n)
	for i := range mapping {
		mapping[i] = -1
	}
	var rec func(v int) bool
	rec = func(v int) bool {
		if v == n {
			return true
		}
		for w := 0; w < n; w++ {
			if used[w] || g.Degree(v) != h.Degree(w) {
				continue
			}
			ok := true
			for u := 0; u < v; u++ {
				if g.HasEdge(v, u) != h.HasEdge(w, mapping[u]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			mapping[v] = w
			used[w] = true
			if rec(v + 1) {
				return true
			}
			mapping[v] = -1
			used[w] = false
		}
		return false
	}
	return rec(0)
}

func sameDegreeSequence(g, h *Graph) bool {
	count := make(map[int]int)
	for v := 0; v < g.N(); v++ {
		count[g.Degree(v)]++
		count[h.Degree(v)]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

// ShortestPath returns some shortest path from u to v inclusive of both
// endpoints, or nil if v is unreachable from u.
func (g *Graph) ShortestPath(u, v int) []int {
	if u < 0 || u >= g.N() || v < 0 || v >= g.N() {
		return nil
	}
	parent := make([]int, g.N())
	for i := range parent {
		parent[i] = -2 // unvisited
	}
	parent[u] = -1
	queue := []int{u}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		if x == v {
			break
		}
		for _, w := range g.adj[x] {
			if parent[w] == -2 {
				parent[w] = x
				queue = append(queue, w)
			}
		}
	}
	if parent[v] == -2 {
		return nil
	}
	var rev []int
	for x := v; x != -1; x = parent[x] {
		rev = append(rev, x)
	}
	path := make([]int, len(rev))
	for i, x := range rev {
		path[len(rev)-1-i] = x
	}
	return path
}

// CountCycles returns the cycle rank (circuit rank) of g: m - n + c, the
// number of independent cycles. A connected graph has at least two cycles in
// the sense of Section 5.2 of the paper iff its cycle rank is at least 2.
func (g *Graph) CountCycles() int {
	return g.M() - g.N() + len(g.Components())
}

// ChromaticNumber returns χ(G), computed by incremental backtracking.
// Intended for small graphs only.
func (g *Graph) ChromaticNumber() int {
	if g.N() == 0 {
		return 0
	}
	for k := 1; ; k++ {
		if g.IsKColorable(k) {
			return k
		}
	}
}

// SortedDegrees returns the degree sequence in ascending order.
func (g *Graph) SortedDegrees() []int {
	out := make([]int, g.N())
	for v := 0; v < g.N(); v++ {
		out[v] = g.Degree(v)
	}
	sort.Ints(out)
	return out
}

// NodeWithID returns the node carrying identifier id, or -1 if absent.
func (ids IDs) NodeWithID(id int) int {
	for v, x := range ids {
		if x == id {
			return v
		}
	}
	return -1
}

// CountGraphs returns the number of graphs on n labeled nodes satisfying
// pred. Exponential; intended for tiny n in tests.
func CountGraphs(n int, pred func(*Graph) bool) int {
	count := 0
	EnumGraphs(n, func(g *Graph) bool {
		if pred(g) {
			count++
		}
		return true
	})
	return count
}

// EnumIDsShard calls fn with the injective identifier assignments of
// EnumIDs(n, maxID) assigned to the given shard. The space is split on the
// first node's identifier: an assignment with Id(0) = id belongs to shard
// (id-1) % shards. Shards beyond maxID produce nothing.
func EnumIDsShard(n, maxID, shard, shards int, fn func(IDs) bool) {
	if shards <= 1 {
		if shard == 0 {
			EnumIDs(n, maxID, fn)
		}
		return
	}
	if maxID < n || shard < 0 || shard >= shards {
		return
	}
	if n == 0 {
		if shard == 0 {
			fn(IDs{})
		}
		return
	}
	ids := make(IDs, n)
	used := make([]bool, maxID+1)
	var rec func(v int) bool
	rec = func(v int) bool {
		if v == n {
			return fn(ids.Clone())
		}
		for id := 1; id <= maxID; id++ {
			if used[id] {
				continue
			}
			used[id] = true
			ids[v] = id
			if !rec(v + 1) {
				return false
			}
			used[id] = false
		}
		return true
	}
	for id := 1; id <= maxID; id++ {
		if (id-1)%shards != shard {
			continue
		}
		used[id] = true
		ids[0] = id
		if !rec(1) {
			return
		}
		used[id] = false
	}
}

// EnumGraphsShard calls fn with the graphs of EnumGraphs(n) assigned to the
// given shard: the graph with edge mask m belongs to shard m % shards, so a
// shard strides through the mask space directly. Like EnumGraphs, the Graph
// passed to fn is reused across calls; Clone it to retain.
func EnumGraphsShard(n, shard, shards int, fn func(*Graph) bool) {
	if shards <= 1 {
		if shard == 0 {
			EnumGraphs(n, fn)
		}
		return
	}
	if shard < 0 || shard >= shards {
		return
	}
	pairs := allPairs(n)
	total := 1 << len(pairs)
	deg := make([]int, n)
	g := New(n)
	backing := make([]int, n*max(n-1, 0))
	for mask := shard; mask < total; mask += shards {
		// Same reused-Graph construction as EnumGraphs; see there.
		for v := range deg {
			deg[v] = 0
		}
		g.m = 0
		for i, e := range pairs {
			if mask&(1<<i) != 0 {
				deg[e[0]]++
				deg[e[1]]++
				g.m++
			}
		}
		off := 0
		for v := 0; v < n; v++ {
			if deg[v] > 0 {
				g.adj[v] = backing[off : off : off+deg[v]]
				off += deg[v]
			} else {
				g.adj[v] = nil
			}
		}
		for i, e := range pairs {
			if mask&(1<<i) != 0 {
				g.adj[e[0]] = append(g.adj[e[0]], e[1])
				g.adj[e[1]] = append(g.adj[e[1]], e[0])
			}
		}
		if !fn(g) {
			return
		}
	}
}

// Theta returns the theta graph: two nodes joined by three internally
// disjoint paths of the given edge lengths (each >= 2). It is the smallest
// interesting watermelon with more than two paths... and, with suitable
// parities, the canonical graph with two independent cycles used in
// Section 5.2.
func Theta(a, b, c int) (*Graph, error) {
	return Watermelon([]int{a, b, c})
}

// Hypercube returns the d-dimensional hypercube graph Q_d on 2^d nodes
// (bipartite, d-regular; large hypercubes are further witnesses for the
// graph class of Theorem 1.2).
func Hypercube(d int) *Graph {
	n := 1 << d
	g := New(n)
	for v := 0; v < n; v++ {
		for b := 0; b < d; b++ {
			w := v ^ (1 << b)
			if v < w {
				mustAddEdge(g, v, w)
			}
		}
	}
	return g
}

// Ladder returns the ladder graph P_k x K_2 on 2k nodes: two parallel
// paths with rungs. Bipartite with minimum degree 2 (for k >= 2) and not a
// cycle for k >= 3.
func Ladder(k int) *Graph {
	g := New(2 * k)
	for i := 0; i < k; i++ {
		mustAddEdge(g, 2*i, 2*i+1) // rung
		if i+1 < k {
			mustAddEdge(g, 2*i, 2*(i+1))
			mustAddEdge(g, 2*i+1, 2*(i+1)+1)
		}
	}
	return g
}

// MobiusLadder returns the Möbius ladder M_k: the cycle C_{2k} plus the k
// antipodal chords. Each chord closes a (k+1)-cycle, so M_k is bipartite
// iff k is odd (M_3 = K_{3,3}); even k gives a 3-regular non-bipartite
// no-instance family. Requires k >= 3.
func MobiusLadder(k int) (*Graph, error) {
	if k < 3 {
		return nil, fmt.Errorf("Möbius ladder needs k >= 3, got %d", k)
	}
	g, err := Cycle(2 * k)
	if err != nil {
		return nil, err
	}
	for v := 0; v < k; v++ {
		mustAddEdge(g, v, v+k)
	}
	return g, nil
}

// Wheel returns the wheel graph W_n: a hub (node 0) joined to every node
// of an outer (n-1)-cycle. Requires n >= 4.
func Wheel(n int) (*Graph, error) {
	if n < 4 {
		return nil, fmt.Errorf("wheel needs at least 4 nodes, got %d", n)
	}
	g := New(n)
	for v := 1; v < n; v++ {
		mustAddEdge(g, 0, v)
		next := v + 1
		if next == n {
			next = 1
		}
		mustAddEdge(g, v, next)
	}
	return g, nil
}

// Caterpillar returns a caterpillar tree: a spine path on spine nodes with
// legs[i] pendant leaves attached to spine node i. Caterpillars are trees
// with minimum degree 1 — instances of the DegreeOne scheme's class H1.
func Caterpillar(spine int, legs []int) (*Graph, error) {
	if spine < 1 {
		return nil, fmt.Errorf("caterpillar needs a non-empty spine")
	}
	if len(legs) > spine {
		return nil, fmt.Errorf("more leg specs (%d) than spine nodes (%d)", len(legs), spine)
	}
	n := spine
	for _, l := range legs {
		if l < 0 {
			return nil, fmt.Errorf("negative leg count")
		}
		n += l
	}
	g := New(n)
	for i := 0; i+1 < spine; i++ {
		mustAddEdge(g, i, i+1)
	}
	next := spine
	for i, l := range legs {
		for j := 0; j < l; j++ {
			mustAddEdge(g, i, next)
			next++
		}
	}
	return g, nil
}
