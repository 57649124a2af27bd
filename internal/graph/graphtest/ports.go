package graphtest

import (
	"math/rand"

	"hidinglcp/internal/graph"
)

// SmallPortedGraphs calls fn with every connected graph on at most 5
// labeled nodes: those on at most 4 nodes under every port assignment (K4
// has 6^4), those on 5 under every assignment when there are at most 32 and
// under 32 drawn from rng otherwise (the 728 graphs have 15.2 M
// assignments, K5 alone 24^5).
func SmallPortedGraphs(rng *rand.Rand, fn func(*graph.Graph, *graph.Ports)) {
	for n := 1; n <= 4; n++ {
		portedGraphs(n, 1296, rng, fn)
	}
	portedGraphs(5, 32, rng, fn)
}

// portedGraphs calls fn with every connected graph on n labeled nodes,
// each under every port assignment when it has at most limit of them and
// under limit random assignments drawn from rng otherwise.
func portedGraphs(n, limit int, rng *rand.Rand, fn func(*graph.Graph, *graph.Ports)) {
	graph.EnumConnectedGraphs(n, func(g *graph.Graph) bool {
		count := 1
		for v := 0; v < n && count <= limit; v++ {
			for k := 2; k <= g.Degree(v); k++ {
				count *= k
			}
		}
		if count <= limit {
			graph.EnumPorts(g, func(pt *graph.Ports) bool {
				fn(g, pt)
				return true
			})
			return true
		}
		perm := make([][]int, n)
		for trial := 0; trial < limit; trial++ {
			for v := range perm {
				perm[v] = rng.Perm(g.Degree(v))
			}
			pt, err := graph.PortsFromPerm(g, perm)
			if err != nil {
				panic("graphtest: generator bug: " + err.Error())
			}
			fn(g, pt)
		}
		return true
	})
}

// ViewPortRows returns the port rows that the radius-r view of hosts[0]
// must carry when its local node i is host node hosts[i] (Section 2.2): row
// i holds, at each port p of hosts[i] whose edge is visible, the local
// index of the node behind it, and -1 at every other port; it ends at the
// largest visible port. An edge is visible when both its ends are local
// nodes and not both are at distance r from hosts[0].
func ViewPortRows(g *graph.Graph, pt *graph.Ports, hosts []int, r int) [][]int {
	dist := g.BFSDistances(hosts[0])
	local := make(map[int]int, len(hosts))
	for i, h := range hosts {
		local[h] = i
	}
	rows := make([][]int, len(hosts))
	for i, h := range hosts {
		for _, x := range g.Neighbors(h) {
			j, ok := local[x]
			if !ok || (dist[h] == r && dist[x] == r) {
				continue
			}
			p, err := pt.Port(h, x)
			if err != nil {
				panic("graphtest: " + err.Error())
			}
			for len(rows[i]) < p {
				rows[i] = append(rows[i], -1)
			}
			rows[i][p-1] = j
		}
	}
	return rows
}
