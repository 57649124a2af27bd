// Package sim runs the distributed verifier as an actual synchronous
// message-passing computation (the LOCAL model of Section 2.2): r rounds
// of flooding, each a send pass in which every node hands its knowledge to
// its neighbors' inboxes and a receive pass in which every node merges what
// arrived: the sorted sets of host nodes whose records (ID, label, ports)
// it holds. After r rounds every node has gathered exactly its radius-r
// view — including the frontier-edge truncation: an edge between two
// distance-r nodes needs min distance r to either endpoint and therefore
// never arrives within r rounds.
//
// The package has two entry points, both taking the caller's context and
// observability scope: Gather gathers every node's view, and
// RunSchemeFaultsCtx certifies an instance and evaluates the decoder at
// every node. Both drive one scheduler under a seeded faults.Plan — message
// drop, duplication, delay, and reordering, crash-stop node failures, and
// adversarial certificate corruption — with bit-identical replays per
// (seed, plan) and graceful degradation into per-node verdicts plus a
// structured FaultReport. The zero-value plan is the fault-free run, which
// the tests check against the centralized view.Extract and against a
// reference gather that merges neighbor snapshots directly.
package sim

import (
	"fmt"
	"slices"

	"hidinglcp/internal/core"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/view"
)

// Stats reports the communication volume of one gather.
type Stats struct {
	Rounds int
	// Messages is the total number of point-to-point messages actually
	// handed to a link (dropped messages are not counted; duplicated and
	// delayed copies are counted when delivered to the link).
	Messages int
	// Records is the total number of host nodes carried by all messages
	// (a proxy for bandwidth).
	Records int
}

// knowledge is the sorted set of host nodes whose records a node holds.
// Records come only from the initial knowledge of the nodes heard of (a
// node and its incident edges), and payloads merge whole, so the known
// edges are exactly those incident to a known node. A value is never
// written once built.
type knowledge []int32

// merge returns the sorted union of k and other. A union that adds
// nothing returns k itself; otherwise the union is written over dst, which
// must alias neither k nor other.
func (k knowledge) merge(other, dst knowledge) knowledge {
	dst = dst[:0]
	i, j := 0, 0
	for i < len(k) && j < len(other) {
		x, y := k[i], other[j]
		dst = append(dst, min(x, y))
		if x <= y {
			i++
		}
		if y <= x {
			j++
		}
	}
	dst = append(dst, k[i:]...)
	dst = append(dst, other[j:]...)
	if len(dst) == len(k) {
		return k
	}
	return dst
}

// hostTable holds every host node's record for one gather: its ID, its
// label under the gather's labeling (which may differ from l.Labels under
// adversarial corruption), and its port row. The rest is assemble's
// scratch: local[h] is a known host's index in the view being assembled
// (-1 for every other host), hosts and dist the view's hosts and distances.
type hostTable struct {
	g      *graph.Graph
	ids    []int // nil on an anonymous instance
	labels []string
	// nbr[v][p-1] is the neighbor of v behind port p, or -1 for a gap.
	nbr   [][]int
	local []int32
	hosts []int32
	dist  []int
}

// newHostTable builds the table of l's host nodes. A malformed port
// assignment — one not covering the instance's edges — surfaces as an
// error here, at the start of every gather, instead of panicking
// mid-flood.
func newHostTable(l core.Labeled, labels []string) (*hostTable, error) {
	n := l.G.N()
	if l.Prt == nil {
		return nil, fmt.Errorf("instance has no port assignment")
	}
	if len(labels) != n {
		return nil, fmt.Errorf("labeling covers %d nodes, graph has %d", len(labels), n)
	}
	t := &hostTable{g: l.G, ids: l.IDs, labels: labels, nbr: make([][]int, n), local: make([]int32, n)}
	// Each row is a window of the append-only back.
	back := make([]int, 0, 2*l.G.M())
	for v := 0; v < n; v++ {
		start := len(back)
		for _, w := range l.G.Neighbors(v) {
			p, err := l.Prt.Port(v, w)
			if err != nil {
				return nil, fmt.Errorf("malformed port assignment: %w", err)
			}
			for len(back) < start+p {
				back = append(back, -1)
			}
			back[start+p-1] = w
		}
		t.nbr[v] = back[start:len(back):len(back)]
		t.local[v] = -1
	}
	return t, nil
}

// assemble turns gathered knowledge into a view.View with the same local
// numbering convention as view.Extract: nodes sorted by (distance from
// center, host index), frontier-frontier edges dropped.
func (t *hostTable) assemble(k knowledge, center, r, nBound int) (*view.View, error) {
	// Breadth-first search from the center over the host edges between
	// known nodes. An edge with an unknown end (a frontier node's outgoing
	// edge, or — under crash faults — an edge incident to a node that died
	// before speaking) must not act as a shortcut through a node the
	// center knows nothing about. Fault-free this changes nothing: every
	// node within distance r arrives with the records of all nodes on its
	// shortest paths. Sorting each layer as it completes gives the order
	// (distance, host index).
	const unvisited = -2
	for _, h := range k {
		t.local[h] = unvisited
	}
	defer func() {
		for _, h := range k {
			t.local[h] = -1
		}
	}()
	hosts := append(t.hosts[:0], int32(center))
	dist := append(t.dist[:0], 0)
	t.local[center] = 0
	for start, d := 0, 1; start < len(hosts); d++ {
		end := len(hosts)
		for _, x := range hosts[start:end] {
			for _, y := range t.g.Neighbors(int(x)) {
				if t.local[y] == unvisited {
					t.local[y] = int32(len(hosts))
					hosts = append(hosts, int32(y))
					dist = append(dist, d)
				}
			}
		}
		slices.Sort(hosts[end:])
		for i := end; i < len(hosts); i++ {
			t.local[hosts[i]] = int32(i)
		}
		start = end
	}
	t.hosts, t.dist = hosts, dist
	for _, h := range k {
		if i := t.local[h]; i < 0 || dist[i] > r {
			// Knowledge spreads one hop per round and every record travels
			// with the edge chain it came along (even under drop, delay,
			// and duplication faults), so a record outside the radius-r
			// ball is unreachable under flooding; treat it as a bug.
			return nil, fmt.Errorf("gathered record of node %d outside radius %d", h, r)
		}
	}
	// Dist, IDs and the port rows share one backing slice, sized for full
	// host rows. A row ends at its node's largest visible port: an edge is
	// visible when its far end is known and it does not join two frontier
	// nodes.
	m := len(hosts)
	total := 2 * m
	for _, h := range hosts {
		total += len(t.nbr[h])
	}
	back := make([]int, total)
	mu := &view.View{
		Radius: r,
		Dist:   back[:m:m],
		Ports:  &view.PortRows{Rows: make([][]int, m)},
		IDs:    back[m : 2*m : 2*m],
		Labels: make([]string, m),
		NBound: nBound,
	}
	copy(mu.Dist, dist)
	back = back[2*m:]
	for i, h := range hosts {
		if t.ids != nil {
			mu.IDs[i] = t.ids[h]
		}
		mu.Labels[i] = t.labels[h]
		row, n := back[:len(t.nbr[h])], 0
		for p, w := range t.nbr[h] {
			row[p] = -1
			if w < 0 {
				continue
			}
			if j := t.local[w]; j >= 0 && (dist[i] < r || dist[j] < r) {
				row[p], n = int(j), p+1
			}
		}
		if n > 0 {
			mu.Ports.Rows[i] = row[:n:n]
			back = back[n:]
		}
	}
	return mu, nil
}
