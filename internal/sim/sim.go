// Package sim runs the distributed verifier as an actual synchronous
// message-passing computation (the LOCAL model of Section 2.2): one
// goroutine per node, one channel per directed edge, r rounds of flooding
// in lockstep. After r rounds every node has gathered exactly its radius-r
// view — including the frontier-edge truncation: an edge between two
// distance-r nodes needs min distance r to either endpoint and therefore
// never arrives within r rounds.
//
// The package has two entry points, both taking the caller's context and
// observability scope: GatherFaultsCtx gathers every node's view, and
// RunSchemeFaultsCtx certifies an instance and evaluates the decoder at
// every node. Both drive one scheduler under a seeded faults.Plan — message
// drop, duplication, delay, and reordering, crash-stop node failures, and
// adversarial certificate corruption — with bit-identical replays per
// (seed, plan) and graceful degradation into per-node verdicts plus a
// structured FaultReport. The zero-value plan is the fault-free run, which
// the tests check against the centralized view.Extract and against a
// single-threaded reference gather.
package sim

import (
	"fmt"
	"sort"

	"hidinglcp/internal/core"
	"hidinglcp/internal/view"
)

// Stats reports the communication volume of one gather.
type Stats struct {
	Rounds int
	// Messages is the total number of point-to-point messages actually
	// handed to a link (dropped messages are not counted; duplicated and
	// delayed copies are counted when delivered to the link).
	Messages int
	// Records is the total number of node records carried by all messages
	// (a proxy for bandwidth).
	Records int
}

type nodeRec struct {
	id    int
	label string
	deg   int
}

type edgeRec struct {
	a, b         int // host indices, a < b
	portA, portB int
}

// knowledge is a node's accumulated information.
type knowledge struct {
	nodes map[int]nodeRec
	edges map[[2]int]edgeRec
}

func (k *knowledge) clone() knowledge {
	c := knowledge{
		nodes: make(map[int]nodeRec, len(k.nodes)),
		edges: make(map[[2]int]edgeRec, len(k.edges)),
	}
	for i, r := range k.nodes {
		c.nodes[i] = r
	}
	for e, r := range k.edges {
		c.edges[e] = r
	}
	return c
}

func (k *knowledge) merge(other knowledge) {
	for i, r := range other.nodes {
		k.nodes[i] = r
	}
	for e, r := range other.edges {
		k.edges[e] = r
	}
}

// initialKnowledge seeds every node's knowledge with itself and its
// incident edges under the given labeling (which may differ from
// l.Labels under adversarial corruption). A malformed port assignment —
// one not covering the instance's edges — surfaces as an error here, at
// the start of every gather, instead of panicking mid-flood.
func initialKnowledge(l core.Labeled, labels []string) ([]knowledge, error) {
	n := l.G.N()
	if l.Prt == nil {
		return nil, fmt.Errorf("instance has no port assignment")
	}
	if len(labels) != n {
		return nil, fmt.Errorf("labeling covers %d nodes, graph has %d", len(labels), n)
	}
	know := make([]knowledge, n)
	for v := 0; v < n; v++ {
		know[v] = knowledge{nodes: map[int]nodeRec{}, edges: map[[2]int]edgeRec{}}
		id := 0
		if l.IDs != nil {
			id = l.IDs[v]
		}
		know[v].nodes[v] = nodeRec{id: id, label: labels[v], deg: l.G.Degree(v)}
		for _, w := range l.G.Neighbors(v) {
			pa, err := l.Prt.Port(v, w)
			if err != nil {
				return nil, fmt.Errorf("malformed port assignment: %w", err)
			}
			pb, err := l.Prt.Port(w, v)
			if err != nil {
				return nil, fmt.Errorf("malformed port assignment: %w", err)
			}
			a, b := v, w
			if a > b {
				a, b = b, a
				pa, pb = pb, pa
			}
			know[v].edges[[2]int{a, b}] = edgeRec{a: a, b: b, portA: pa, portB: pb}
		}
	}
	return know, nil
}

// assemble turns gathered knowledge into a view.View with the same local
// numbering convention as view.Extract: nodes sorted by (distance from
// center, host index), frontier-frontier edges dropped.
func assemble(k knowledge, center, r, nBound int) (*view.View, error) {
	// BFS over known edges to compute distances from the center. Only edges
	// between nodes whose records are present may be walked: an edge record
	// with an unknown endpoint (a frontier node's outgoing edge, or — under
	// crash faults — an edge incident to a node that died before speaking)
	// must not act as a shortcut through a node the center knows nothing
	// about. Fault-free this changes nothing: every node within distance r
	// arrives with the records of all nodes on its shortest paths.
	adj := make(map[int][]int, len(k.nodes))
	for e := range k.edges {
		if _, ok := k.nodes[e[0]]; !ok {
			continue
		}
		if _, ok := k.nodes[e[1]]; !ok {
			continue
		}
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	dist := map[int]int{center: 0}
	queue := []int{center}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, y := range adj[x] {
			if _, ok := dist[y]; !ok {
				dist[y] = dist[x] + 1
				queue = append(queue, y)
			}
		}
	}
	var hosts []int
	for h := range k.nodes {
		d, ok := dist[h]
		if !ok || d > r {
			// Knowledge spreads one hop per round and every record travels
			// with the edge chain it came along (even under drop, delay,
			// and duplication faults), so a record outside the radius-r
			// ball is unreachable under flooding; treat it as a bug.
			return nil, fmt.Errorf("gathered record of node %d outside radius %d", h, r)
		}
	}
	for h := range k.nodes {
		hosts = append(hosts, h)
	}
	sort.Slice(hosts, func(a, b int) bool {
		if dist[hosts[a]] != dist[hosts[b]] {
			return dist[hosts[a]] < dist[hosts[b]]
		}
		return hosts[a] < hosts[b]
	})
	local := make(map[int]int, len(hosts))
	for i, h := range hosts {
		local[h] = i
	}
	mu := &view.View{
		Radius: r,
		Adj:    make([][]int, len(hosts)),
		Dist:   make([]int, len(hosts)),
		Ports:  make(map[[2]int]int),
		IDs:    make([]int, len(hosts)),
		Labels: make([]string, len(hosts)),
		NBound: nBound,
	}
	for i, h := range hosts {
		rec := k.nodes[h]
		mu.Dist[i] = dist[h]
		mu.IDs[i] = rec.id
		mu.Labels[i] = rec.label
	}
	for e, rec := range k.edges {
		i, okA := local[e[0]]
		j, okB := local[e[1]]
		if !okA || !okB {
			continue
		}
		if mu.Dist[i] == r && mu.Dist[j] == r {
			continue // frontier truncation
		}
		mu.Adj[i] = append(mu.Adj[i], j)
		mu.Adj[j] = append(mu.Adj[j], i)
		mu.Ports[[2]int{i, j}] = rec.portA
		mu.Ports[[2]int{j, i}] = rec.portB
	}
	for i := range mu.Adj {
		sort.Ints(mu.Adj[i])
	}
	return mu, nil
}
