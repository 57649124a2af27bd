package sim

import (
	"fmt"
	"sort"
	"testing"

	"hidinglcp/internal/core"
	"hidinglcp/internal/faults"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/obs"
	"hidinglcp/internal/view"
)

// gather is the fault-free production gather: Gather under the
// zero-value plan, the nil never-cancelled context, and a zero Scope.
func gather(l core.Labeled, r int) ([]*view.View, Stats, error) {
	views, stats, _, err := Gather(nil, obs.Scope{}, l, r, faults.Plan{})
	return views, stats, err
}

// gatherSequential computes the fault-free gather by merging neighbor
// snapshots directly, with no injector, inboxes or report, and with every
// record held explicitly in maps: the reference oracle the scheduler and
// its node-set knowledge are checked against, and the baseline of
// BenchmarkSimulator.
func gatherSequential(l core.Labeled, r int) ([]*view.View, Stats, error) {
	n := l.G.N()
	if r < 0 {
		return nil, Stats{}, fmt.Errorf("negative radius %d", r)
	}
	know, err := mapInitialKnowledge(l)
	if err != nil {
		return nil, Stats{}, err
	}
	stats := Stats{Rounds: r}
	for round := 0; round < r; round++ {
		snapshots := make([]mapKnowledge, n)
		for v := 0; v < n; v++ {
			snapshots[v] = know[v].clone()
		}
		for v := 0; v < n; v++ {
			for _, w := range l.G.Neighbors(v) {
				know[v].merge(snapshots[w])
				stats.Messages++
				stats.Records += len(snapshots[w].nodes)
			}
		}
	}
	views := make([]*view.View, n)
	for v := 0; v < n; v++ {
		mu, err := mapAssemble(know[v], v, r, l.NBound)
		if err != nil {
			return nil, stats, err
		}
		views[v] = mu
	}
	return views, stats, nil
}

type nodeRec struct {
	id    int
	label string
}

type edgeRec struct {
	a, b         int // host indices, a < b
	portA, portB int
}

// mapKnowledge is a node's accumulated information as explicit node and
// edge records.
type mapKnowledge struct {
	nodes map[int]nodeRec
	edges map[[2]int]edgeRec
}

func (k *mapKnowledge) clone() mapKnowledge {
	c := mapKnowledge{
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

func (k *mapKnowledge) merge(other mapKnowledge) {
	for i, r := range other.nodes {
		k.nodes[i] = r
	}
	for e, r := range other.edges {
		k.edges[e] = r
	}
}

// mapInitialKnowledge seeds every node's knowledge with itself and its
// incident edges.
func mapInitialKnowledge(l core.Labeled) ([]mapKnowledge, error) {
	n := l.G.N()
	if l.Prt == nil {
		return nil, fmt.Errorf("instance has no port assignment")
	}
	know := make([]mapKnowledge, n)
	for v := 0; v < n; v++ {
		know[v] = mapKnowledge{nodes: map[int]nodeRec{}, edges: map[[2]int]edgeRec{}}
		id := 0
		if l.IDs != nil {
			id = l.IDs[v]
		}
		know[v].nodes[v] = nodeRec{id: id, label: l.Labels[v]}
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

// mapAssemble turns gathered records into a view.View with the same local
// numbering convention as view.Extract: nodes sorted by (distance from
// center, host index), frontier-frontier edges dropped. Only edges between
// nodes whose records are present are walked.
func mapAssemble(k mapKnowledge, center, r, nBound int) (*view.View, error) {
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
		if d, ok := dist[h]; !ok || d > r {
			return nil, fmt.Errorf("gathered record of node %d outside radius %d", h, r)
		}
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
		Dist:   make([]int, len(hosts)),
		Ports:  &view.PortRows{Rows: make([][]int, len(hosts))},
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
	// visible maps a known edge to its local ends, or ok=false when an end
	// is unknown or the edge joins two frontier nodes (frontier truncation).
	visible := func(e [2]int) (i, j int, ok bool) {
		i, okA := local[e[0]]
		j, okB := local[e[1]]
		if !okA || !okB || (mu.Dist[i] == r && mu.Dist[j] == r) {
			return 0, 0, false
		}
		return i, j, true
	}
	// Each port row ends at the largest port received for its node; one
	// pass sizes the rows, a second fills them from one backing slice.
	rowLen := make([]int, len(hosts))
	for e, rec := range k.edges {
		i, j, ok := visible(e)
		if !ok {
			continue
		}
		rowLen[i] = max(rowLen[i], rec.portA)
		rowLen[j] = max(rowLen[j], rec.portB)
	}
	total := 0
	for _, n := range rowLen {
		total += n
	}
	back := make([]int, total)
	for i, n := range rowLen {
		if n > 0 {
			row := back[:n:n]
			back = back[n:]
			for p := range row {
				row[p] = -1
			}
			mu.Ports.Rows[i] = row
		}
	}
	for e, rec := range k.edges {
		if i, j, ok := visible(e); ok {
			mu.Ports.Rows[i][rec.portA-1] = j
			mu.Ports.Rows[j][rec.portB-1] = i
		}
	}
	return mu, nil
}

// BenchmarkSimulator compares the production gather with the reference
// oracle on the same instance (DESIGN.md Section 4).
func BenchmarkSimulator(b *testing.B) {
	g := graph.Grid(8, 8)
	l := core.MustNewLabeled(core.NewInstance(g), make([]string, g.N()))
	b.Run("gather", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := gather(l, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := gatherSequential(l, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
}
