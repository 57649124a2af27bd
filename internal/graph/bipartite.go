package graph

// TwoColoring attempts to properly 2-color g. It returns the coloring (values
// 0/1 indexed by node) and true on success, or nil and false if g contains an
// odd cycle. Disconnected graphs are colored component by component, with
// color 0 assigned to the smallest node of each component.
func (g *Graph) TwoColoring() ([]int, bool) {
	color := make([]int, g.N())
	for i := range color {
		color[i] = -1
	}
	for s := 0; s < g.N(); s++ {
		if color[s] != -1 {
			continue
		}
		color[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range g.adj[v] {
				switch color[w] {
				case -1:
					color[w] = 1 - color[v]
					queue = append(queue, w)
				case color[v]:
					return nil, false
				}
			}
		}
	}
	return color, true
}

// IsBipartite reports whether g has no odd cycle.
func (g *Graph) IsBipartite() bool {
	if g.N() > 64 {
		_, ok := g.TwoColoring()
		return ok
	}
	// Allocation-free 2-coloring over bitmasks: seen marks visited nodes,
	// col holds their side (bit set = side 1). Each node is enqueued at
	// most once, so the queue fits in 64 slots.
	var seen, col uint64
	var queue [64]int
	for s := 0; s < g.N(); s++ {
		if seen&(1<<uint(s)) != 0 {
			continue
		}
		seen |= 1 << uint(s)
		queue[0] = s
		head, tail := 0, 1
		for head < tail {
			v := queue[head]
			head++
			cv := (col >> uint(v)) & 1
			for _, w := range g.adj[v] {
				if seen&(1<<uint(w)) == 0 {
					seen |= 1 << uint(w)
					col |= (1 - cv) << uint(w)
					queue[tail] = w
					tail++
				} else if (col>>uint(w))&1 == cv {
					return false
				}
			}
		}
	}
	return true
}

// OddCycle returns the node sequence of some odd cycle in g (first node not
// repeated at the end), or nil if g is bipartite.
func (g *Graph) OddCycle() []int {
	color := make([]int, g.N())
	parent := make([]int, g.N())
	for i := range color {
		color[i] = -1
		parent[i] = -1
	}
	for s := 0; s < g.N(); s++ {
		if color[s] != -1 {
			continue
		}
		color[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range g.adj[v] {
				if color[w] == -1 {
					color[w] = 1 - color[v]
					parent[w] = v
					queue = append(queue, w)
					continue
				}
				if color[w] != color[v] {
					continue
				}
				// Same-color edge {v, w}: splice the two tree paths together.
				return spliceOddCycle(parent, v, w)
			}
		}
	}
	return nil
}

// OddGirth returns the length of a shortest odd cycle of g, or 0 if g is
// bipartite. Unlike OddCycle's first find, it does not depend on node
// numbering. A BFS from each node s looks for an edge {v, w} with both
// ends at the same distance d from s: the two tree paths and the edge form
// an odd closed walk of length 2d+1, which contains an odd cycle no longer
// than it. Conversely, a shortest odd cycle of length 2d+1 is isometric, so
// the BFS from any of its nodes meets its far edge at level d. The minimum
// over all sources is therefore exact; each BFS stops once its level can no
// longer beat the best length found.
func (g *Graph) OddGirth() int {
	best := 0
	dist := make([]int, g.N())
	queue := make([]int, 0, g.N())
	for s := 0; s < g.N(); s++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue = append(queue[:0], s)
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			if best > 0 && 2*dist[v]+1 >= best {
				break
			}
			for _, w := range g.adj[v] {
				switch {
				case dist[w] < 0:
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				case dist[w] == dist[v]:
					best = 2*dist[v] + 1
				}
			}
		}
	}
	return best
}

// spliceOddCycle builds the odd cycle induced by BFS-tree paths to v and w
// plus the edge {v, w}.
func spliceOddCycle(parent []int, v, w int) []int {
	pathTo := func(x int) []int {
		var rev []int
		for ; x != -1; x = parent[x] {
			rev = append(rev, x)
		}
		out := make([]int, len(rev))
		for i, y := range rev {
			out[len(rev)-1-i] = y
		}
		return out
	}
	pv, pw := pathTo(v), pathTo(w)
	// Find the last common ancestor index.
	lca := 0
	for lca+1 < len(pv) && lca+1 < len(pw) && pv[lca+1] == pw[lca+1] {
		lca++
	}
	cycle := append([]int(nil), pv[lca:]...)
	for i := len(pw) - 1; i > lca; i-- {
		cycle = append(cycle, pw[i])
	}
	return cycle
}

// IsProperColoring reports whether color (indexed by node, arbitrary integer
// palette) is a proper coloring of g: every edge has differently colored
// endpoints. Colorings shorter than g.N() are improper.
func (g *Graph) IsProperColoring(color []int) bool {
	if len(color) < g.N() {
		return false
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.adj[u] {
			if u < v && color[u] == color[v] {
				return false
			}
		}
	}
	return true
}

// KColoring attempts to properly color g with colors 0..k-1. It returns
// the coloring and true on success. The search uses low-degree peeling,
// DSATUR-ordered backtracking, and color-symmetry breaking, and runs
// without a step budget — worst-case exponential; see KColoringBudget for
// the bounded variant used on large inputs.
func (g *Graph) KColoring(k int) ([]int, bool) {
	coloring, ok, decided := g.KColoringBudget(k, -1)
	if !decided {
		// Unreachable: an unlimited budget always decides.
		panic("graph.KColoring: unlimited search reported undecided")
	}
	return coloring, ok
}

// KColoringBudget is KColoring with a backtracking-step budget: budget < 0
// means unlimited. It returns decided = false when the budget is exhausted
// before the search concludes (coloring and ok are then meaningless).
//
// The search first peels vertices of degree < k (always greedily colorable
// afterwards), then backtracks over the remaining core choosing the most
// saturated vertex first (DSATUR) and introducing fresh colors one at a
// time; k = 2 short-circuits to the exact bipartiteness test.
func (g *Graph) KColoringBudget(k, budget int) (coloring []int, ok, decided bool) {
	switch {
	case k < 0:
		return nil, false, true
	case g.N() == 0:
		return []int{}, true, true
	case k == 0:
		return nil, false, true
	case k == 1:
		if g.M() == 0 {
			return make([]int, g.N()), true, true
		}
		return nil, false, true
	case k == 2:
		c, okTwo := g.TwoColoring()
		return c, okTwo, true
	case k >= g.N():
		// Enough colors for one per node (also keeps the color bitmasks
		// below within their 64-bit budget for any realistic k).
		c := make([]int, g.N())
		for i := range c {
			c[i] = i
		}
		return c, true, true
	}

	// Peel: repeatedly remove vertices with fewer than k remaining
	// neighbors; they can always be colored after the core.
	deg := make([]int, g.N())
	removed := make([]bool, g.N())
	for v := 0; v < g.N(); v++ {
		deg[v] = g.Degree(v)
	}
	var peel []int
	queue := make([]int, 0, g.N())
	for v := 0; v < g.N(); v++ {
		if deg[v] < k {
			queue = append(queue, v)
			removed[v] = true
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		peel = append(peel, v)
		for _, w := range g.adj[v] {
			if removed[w] {
				continue
			}
			deg[w]--
			if deg[w] < k {
				removed[w] = true
				queue = append(queue, w)
			}
		}
	}

	color := make([]int, g.N())
	for i := range color {
		color[i] = -1
	}
	var core []int
	for v := 0; v < g.N(); v++ {
		if !removed[v] {
			core = append(core, v)
		}
	}
	steps := 0
	outOfBudget := false
	var solve func(remaining, maxUsed int) bool
	solve = func(remaining, maxUsed int) bool {
		if remaining == 0 {
			return true
		}
		if budget >= 0 {
			steps++
			if steps > budget {
				outOfBudget = true
				return false
			}
		}
		// DSATUR: pick the uncolored core vertex with the most distinct
		// neighbor colors, breaking ties by degree then index.
		best, bestSat, bestDeg := -1, -1, -1
		for _, v := range core {
			if color[v] != -1 {
				continue
			}
			seen := 0
			var mask uint64
			for _, w := range g.adj[v] {
				if c := color[w]; c >= 0 && mask&(1<<uint(c)) == 0 {
					mask |= 1 << uint(c)
					seen++
				}
			}
			if seen > bestSat || (seen == bestSat && g.Degree(v) > bestDeg) {
				best, bestSat, bestDeg = v, seen, g.Degree(v)
			}
		}
		v := best
		limit := maxUsed + 1
		if limit > k {
			limit = k
		}
		for c := 0; c < limit; c++ {
			okColor := true
			for _, w := range g.adj[v] {
				if color[w] == c {
					okColor = false
					break
				}
			}
			if !okColor {
				continue
			}
			color[v] = c
			next := maxUsed
			if c == maxUsed {
				next = maxUsed + 1
			}
			if solve(remaining-1, next) {
				return true
			}
			color[v] = -1
			if outOfBudget {
				return false
			}
		}
		return false
	}
	if !solve(len(core), 0) {
		if outOfBudget {
			return nil, false, false
		}
		return nil, false, true
	}
	// Unpeel in reverse removal order: each vertex has fewer than k
	// colored neighbors at its reinsertion time.
	for i := len(peel) - 1; i >= 0; i-- {
		v := peel[i]
		var mask uint64
		for _, w := range g.adj[v] {
			if c := color[w]; c >= 0 {
				mask |= 1 << uint(c)
			}
		}
		for c := 0; c < k; c++ {
			if mask&(1<<uint(c)) == 0 {
				color[v] = c
				break
			}
		}
		if color[v] == -1 {
			panic("graph.KColoringBudget: peel reinsertion found no free color")
		}
	}
	return color, true, true
}

// IsKColorable reports whether g admits a proper coloring with k colors.
func (g *Graph) IsKColorable(k int) bool {
	_, ok := g.KColoring(k)
	return ok
}
