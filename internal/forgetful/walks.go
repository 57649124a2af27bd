package forgetful

import (
	"fmt"

	"hidinglcp/internal/graph"
	"hidinglcp/internal/nbhd"
	"hidinglcp/internal/view"
)

// EscapeWalk constructs the closed walk W_e of Lemma 5.4 (Fig. 8) in the
// host graph g: starting at u, it takes the edge to v, follows an escape
// path away from u's r-ball, continues without backtracking to a node z
// whose r-ball is disjoint from those of u and v, and finally returns to u
// without backtracking. The walk is closed and — in a bipartite host — of
// even length.
//
// It requires g to be connected with minimum degree at least 2 (so
// non-backtracking continuation is always possible) and returns an error
// when any stage fails.
func EscapeWalk(g *graph.Graph, u, v, r int) ([]int, error) {
	if !g.HasEdge(u, v) {
		return nil, fmt.Errorf("nodes %d and %d are not adjacent", u, v)
	}
	if g.MinDegree() < 2 {
		return nil, fmt.Errorf("escape walks need minimum degree 2, have %d", g.MinDegree())
	}
	esc := EscapePath(g, v, u, r)
	if esc == nil {
		return nil, fmt.Errorf("no escape path from %d with respect to %d (graph not %d-forgetful there)", v, u, r)
	}
	z := FarNode(g, u, v, r)
	if z < 0 {
		return nil, fmt.Errorf("no node with an r-ball disjoint from those of %d and %d", u, v)
	}

	walk := append([]int{u}, esc...) // u, v = esc[0], ..., esc[r]
	// Continue from the end of the escape path to z without backtracking.
	if err := extendWithout(g, &walk, z); err != nil {
		return nil, fmt.Errorf("reaching far node %d: %w", z, err)
	}
	// And return to u without backtracking — including at the closure: the
	// walk must not re-enter u through the edge it first left by (v).
	cur := walk[len(walk)-1]
	prev := walk[len(walk)-2]
	route := nonBacktrackingRouteAvoidFinal(g, cur, prev, u, v)
	if route == nil {
		return nil, fmt.Errorf("no non-backtracking return to %d avoiding final edge from %d", u, v)
	}
	return append(walk, route...), nil
}

// extendWithout extends the walk to target along a non-backtracking walk
// (no step immediately reverses the previous one, including the junction
// with the walk so far). The continuation is found by BFS over directed
// edges, which in a connected graph of minimum degree 2 always succeeds.
func extendWithout(g *graph.Graph, walk *[]int, target int) error {
	w := *walk
	cur := w[len(w)-1]
	prev := -1
	if len(w) >= 2 {
		prev = w[len(w)-2]
	}
	if cur == target {
		return nil
	}
	route := nonBacktrackingRoute(g, cur, prev, target)
	if route == nil {
		return fmt.Errorf("no non-backtracking route from %d to %d avoiding first step to %d", cur, prev, target)
	}
	*walk = append(w, route...)
	return nil
}

// nonBacktrackingRoute returns the node sequence (excluding `from`) of a
// shortest walk from `from` to `target` that never immediately reverses an
// edge and whose first step is not to `banned`. It returns nil if no such
// walk exists.
func nonBacktrackingRoute(g *graph.Graph, from, banned, target int) []int {
	return nonBacktrackingRouteAvoidFinal(g, from, banned, target, -1)
}

// nonBacktrackingRouteAvoidFinal is nonBacktrackingRoute with one more
// constraint: the walk must not enter `target` coming from `bannedFinal`.
func nonBacktrackingRouteAvoidFinal(g *graph.Graph, from, banned, target, bannedFinal int) []int {
	type state struct{ node, came int }
	parent := make(map[state]state)
	var queue []state
	seen := make(map[state]bool)
	for _, nb := range g.Neighbors(from) {
		if nb == banned {
			continue
		}
		s := state{nb, from}
		seen[s] = true
		parent[s] = state{from, -1}
		queue = append(queue, s)
	}
	var goal *state
	for len(queue) > 0 && goal == nil {
		s := queue[0]
		queue = queue[1:]
		if s.node == target && s.came != bannedFinal {
			goal = &s
			break
		}
		for _, nb := range g.Neighbors(s.node) {
			if nb == s.came {
				continue
			}
			next := state{nb, s.node}
			if seen[next] {
				continue
			}
			seen[next] = true
			parent[next] = s
			queue = append(queue, next)
		}
	}
	if goal == nil {
		return nil
	}
	var rev []int
	for s := *goal; s.came != -1; s = parent[s] {
		rev = append(rev, s.node)
	}
	route := make([]int, len(rev))
	for i, x := range rev {
		route[len(rev)-1-i] = x
	}
	return route
}

// IsNonBacktracking reports whether the closed walk never immediately
// reverses an edge, including around the closing point (the
// non-backtracking condition of Section 5.2, evaluated structurally on the
// host graph; the view-level condition compares predecessor and successor
// center identifiers, which coincides with this on a host walk).
func IsNonBacktracking(walk []int) bool {
	if len(walk) < 2 || walk[0] != walk[len(walk)-1] {
		return false
	}
	steps := len(walk) - 1
	for i := 0; i < steps; i++ {
		prev := walk[(i-1+steps)%steps]
		next := walk[(i+1)%steps]
		if prev == next {
			return false
		}
	}
	return true
}

// LiftWalk maps a closed host walk to the corresponding closed walk of
// views in the accepting neighborhood graph slice ng (Lemma 5.4's lifting):
// it returns the view indices visited, or an error if some visited view is
// not an accepting view of ng.
func LiftWalk(ng *nbhd.NGraph, views []*view.View, walk []int, anonymous bool) ([]int, error) {
	lifted := make([]int, len(walk))
	for i, node := range walk {
		mu := views[node]
		if anonymous {
			mu = mu.Anonymize()
		}
		idx := ng.IndexOfView(mu)
		if idx < 0 {
			return nil, fmt.Errorf("walk node %d's view is not an accepting view", node)
		}
		lifted[i] = idx
	}
	return lifted, nil
}

// FindOddClosedWalk searches ng for a closed walk of odd length at most
// maxLen edges, optionally requiring the walk to be non-backtracking in the
// sense of Section 5.2: for every view on the walk, its predecessor and
// successor views have distinct center identifiers (for anonymous views,
// distinct view nodes are required instead). A self-looped view counts as
// an odd closed walk of length 1. It returns the visited view indices
// (first = last), or nil if none is found within the bound.
func FindOddClosedWalk(ng *nbhd.NGraph, maxLen int, nonBacktracking bool) []int {
	for i := 0; i < ng.Size(); i++ {
		if ng.HasLoop(i) {
			return []int{i, i}
		}
	}
	g := ng.Graph()
	if !nonBacktracking {
		cyc := g.OddCycle()
		if cyc == nil || len(cyc) > maxLen {
			return nil
		}
		return append(cyc, cyc[0])
	}
	// conflicts reports whether stepping a -> x -> b backtracks: the
	// predecessor and successor carry the same center identifier (or are
	// the same view, in the anonymous case).
	conflicts := func(a, b int) bool {
		if a < 0 || b < 0 {
			return false
		}
		ida := ng.ViewAt(a).IDs[view.Center]
		idb := ng.ViewAt(b).IDs[view.Center]
		if ida == 0 && idb == 0 {
			return a == b
		}
		return ida == idb
	}
	for start := 0; start < g.N(); start++ {
		walk := []int{start}
		var rec func(cur, prev, depth int) []int
		rec = func(cur, prev, depth int) []int {
			if depth >= maxLen {
				return nil
			}
			for _, nb := range g.Neighbors(cur) {
				if conflicts(prev, nb) {
					continue
				}
				if nb == start && depth >= 2 && depth%2 == 0 {
					// Closing yields odd edge count depth+1; the closure
					// must not backtrack at the start view either.
					if conflicts(cur, walk[1]) {
						continue
					}
					return append(append([]int(nil), walk...), start)
				}
				if nb == start {
					continue // keep walks simple except for the closure
				}
				walk = append(walk, nb)
				if res := rec(nb, cur, depth+1); res != nil {
					return res
				}
				walk = walk[:len(walk)-1]
			}
			return nil
		}
		if res := rec(start, -1, 0); res != nil {
			return res
		}
	}
	return nil
}
