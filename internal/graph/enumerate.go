package graph

import "fmt"

// EnumGraphs calls fn with every simple graph on exactly n labeled nodes
// (2^(n(n-1)/2) of them). Enumeration stops early if fn returns false.
// The Graph passed to fn — node set, adjacency storage, everything — is
// reused across calls; treat it as read-only and Clone it to retain.
func EnumGraphs(n int, fn func(*Graph) bool) {
	pairs := allPairs(n)
	total := 1 << len(pairs)
	deg := make([]int, n)
	// One Graph and one adjacency backing array (sized for the complete
	// graph) serve every mask; per mask the lists are re-sliced out of the
	// backing. Pairs are lexicographic, so plain appends keep each list
	// sorted — the same representation AddEdge produces.
	g := New(n)
	backing := make([]int, n*max(n-1, 0))
	for mask := 0; mask < total; mask++ {
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

// EnumConnectedGraphs is EnumGraphs restricted to connected graphs.
func EnumConnectedGraphs(n int, fn func(*Graph) bool) {
	EnumGraphs(n, func(g *Graph) bool {
		if !g.Connected() {
			return true
		}
		return fn(g)
	})
}

func allPairs(n int) [][2]int {
	var pairs [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			pairs = append(pairs, [2]int{u, v})
		}
	}
	return pairs
}

// EnumPorts calls fn with every port assignment of g (the product over nodes
// of deg(v)! permutations). Enumeration stops early if fn returns false.
func EnumPorts(g *Graph, fn func(*Ports) bool) {
	perms := make([][][]int, g.N())
	for v := 0; v < g.N(); v++ {
		perms[v] = permutations(g.Degree(v))
	}
	choice := make([][]int, g.N())
	var rec func(v int) bool
	rec = func(v int) bool {
		if v == g.N() {
			pt, err := PortsFromPerm(g, choice)
			if err != nil {
				panic(fmt.Sprintf("graph.EnumPorts: internal bug: %v", err))
			}
			return fn(pt)
		}
		for _, p := range perms[v] {
			choice[v] = p
			if !rec(v + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
}

// permutations returns all permutations of 0..k-1.
func permutations(k int) [][]int {
	base := make([]int, k)
	for i := range base {
		base[i] = i
	}
	var out [][]int
	var rec func(i int)
	rec = func(i int) {
		if i == k {
			out = append(out, append([]int(nil), base...))
			return
		}
		for j := i; j < k; j++ {
			base[i], base[j] = base[j], base[i]
			rec(i + 1)
			base[i], base[j] = base[j], base[i]
		}
	}
	rec(0)
	return out
}

// EnumIDs calls fn with every injective identifier assignment of n nodes
// using identifiers from [1, maxID]. Enumeration stops early if fn returns
// false.
func EnumIDs(n, maxID int, fn func(IDs) bool) {
	if maxID < n {
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
	rec(0)
}

// EnumLabelings calls fn with every labeling of n nodes over an alphabet of
// the given size (alphabet^n total); labels are integers 0..alphabet-1
// indexed by node. Enumeration stops early if fn returns false. The slice
// passed to fn is reused across calls; copy it to retain.
func EnumLabelings(n, alphabet int, fn func([]int) bool) {
	EnumLabelingsShard(n, alphabet, 0, 1, fn)
}

// Combinations calls fn with every size-k subset of 0..n-1 in lexicographic
// order. Enumeration stops early if fn returns false. The slice passed to
// fn is reused across calls; copy it to retain.
func Combinations(n, k int, fn func([]int) bool) {
	if k < 0 || k > n {
		return
	}
	sel := make([]int, k)
	var rec func(start, i int) bool
	rec = func(start, i int) bool {
		if i == k {
			return fn(sel)
		}
		for v := start; v <= n-(k-i); v++ {
			sel[i] = v
			if !rec(v+1, i+1) {
				return false
			}
		}
		return true
	}
	rec(0, 0)
}
