package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"hidinglcp/internal/mem"
)

// Ports is a port assignment in the sense of Section 2.2: at every node v,
// the incident edges are numbered bijectively with 1..deg(v). Port numbers
// are 1-based, exactly as in the paper.
//
// The representation is a single flat neighbor-by-port table, whose rows
// (Row) walkers read directly: a view, a canonical form and a prover visit
// each node's edges in port order and take the port from the row index.
// Only the reverse map prt(v, {v,w}) -> port (Port) scans v's row, which
// beats a per-node hash map at the tiny degrees of the micro universes this
// library enumerates (and EnumPorts builds one Ports per port assignment,
// so the construction itself must stay cheap: one backing array, no maps).
type Ports struct {
	// nbrByPort[v][p-1] is the neighbor of v reached through port p, or -1
	// for a gap in a partial restriction (see InducedPorts).
	nbrByPort [][]int
}

// DefaultPorts assigns port numbers in increasing neighbor order: the i-th
// smallest neighbor of v is behind port i. Adjacency lists are sorted
// ascending, so each row is a copy of the neighbor list itself.
func DefaultPorts(g *Graph) *Ports {
	ports := &Ports{nbrByPort: make([][]int, g.N())}
	backing := make([]int, 2*g.M())
	off := 0
	for v := 0; v < g.N(); v++ {
		nb := g.Neighbors(v)
		row := backing[off : off+len(nb) : off+len(nb)]
		off += len(nb)
		copy(row, nb)
		ports.nbrByPort[v] = row
	}
	return ports
}

// PortsFromPerm builds a port assignment from per-node permutations: port p
// of node v leads to the perm[v][p-1]-th smallest neighbor of v. It returns
// an error if perm has the wrong shape or any perm[v] is not a permutation
// of 0..deg(v)-1.
func PortsFromPerm(g *Graph, perm [][]int) (*Ports, error) {
	if len(perm) != g.N() {
		return nil, fmt.Errorf("perm has %d rows, want %d", len(perm), g.N())
	}
	ports := &Ports{nbrByPort: make([][]int, g.N())}
	backing := make([]int, 2*g.M())
	var seen []bool
	off := 0
	for v := 0; v < g.N(); v++ {
		deg := g.Degree(v)
		if len(perm[v]) != deg {
			return nil, fmt.Errorf("perm[%d] has %d entries, want deg=%d", v, len(perm[v]), deg)
		}
		if cap(seen) < deg {
			seen = make([]bool, deg)
		}
		seen = seen[:deg]
		for i := range seen {
			seen[i] = false
		}
		row := backing[off : off+deg : off+deg]
		off += deg
		for p0, idx := range perm[v] {
			if idx < 0 || idx >= deg || seen[idx] {
				return nil, fmt.Errorf("perm[%d] is not a permutation of 0..%d", v, deg-1)
			}
			seen[idx] = true
			row[p0] = g.Neighbors(v)[idx]
		}
		ports.nbrByPort[v] = row
	}
	return ports, nil
}

// Port returns prt(v, {v,w}): the port number of edge {v,w} at v, or an
// error if w is not a neighbor of v. The lookup scans v's port row, which
// is linear in deg(v) — faster than a map at the degrees that occur here.
func (pt *Ports) Port(v, w int) (int, error) {
	if v < 0 || v >= len(pt.nbrByPort) {
		return 0, fmt.Errorf("node %d out of range", v)
	}
	if w >= 0 {
		for p0, x := range pt.nbrByPort[v] {
			if x == w {
				return p0 + 1, nil
			}
		}
	}
	return 0, fmt.Errorf("%d is not a neighbor of %d", w, v)
}

// MustPort is Port but panics on error; for use where {v,w} is an edge by
// construction.
func (pt *Ports) MustPort(v, w int) int {
	p, err := pt.Port(v, w)
	if err != nil {
		panic(fmt.Sprintf("graph.MustPort: %v", err))
	}
	return p
}

// Row returns v's port row: the neighbor behind port p at index p-1, or -1
// for a gap in a partial restriction (see InducedPorts). The slice is owned
// by pt and must not be modified.
func (pt *Ports) Row(v int) []int { return pt.nbrByPort[v] }

// formInline is the node count up to which AppendForm keeps its
// breadth-first order and its inverse in fixed arrays on the stack; a
// larger network grows them on the heap.
const formInline = 32

// AppendForm appends the canonical form of the port-numbered network
// (pt, ids, nBound) to dst: two networks get equal forms iff a bijection of
// their nodes preserves edges, the port numbers at both ends of every edge,
// the identifiers and nBound. ids == nil is an anonymous network.
//
// Fixing a root fixes the whole isomorphism: a port-preserving bijection
// that maps root to root maps the breadth-first order that takes each
// node's neighbors in port order onto the other network's, so the
// serialization under that order (see appendRooted) is equal for
// isomorphic networks, and it determines the network up to renaming. The
// form is the byte-wise minimum of the serialization over all n roots,
// which costs O(n·(n+m)) and no search.
//
// ok is false, with dst returned unextended, when the network is empty or
// disconnected, has a port gap (InducedPorts) or ids does not cover every
// node: such a network gets no form and is equal only to itself. Apart from
// growing dst to twice the form's length, the call allocates nothing.
func (pt *Ports) AppendForm(dst []byte, ids IDs, nBound int) (form []byte, ok bool) {
	n := len(pt.nbrByPort)
	if n == 0 || (ids != nil && len(ids) != n) {
		return dst, false
	}
	var orderBuf, posBuf [formInline]int
	order, pos := mem.Ints(orderBuf[:], n), mem.Ints(posBuf[:], n)
	start, bestEnd := len(dst), len(dst)
	for root := 0; root < n; root++ {
		mid := len(dst)
		if dst, ok = pt.appendRooted(dst, order, pos, ids, nBound, root); !ok {
			return dst[:start], false
		}
		if root == 0 || bytes.Compare(dst[mid:], dst[start:bestEnd]) < 0 {
			bestEnd = start + copy(dst[start:], dst[mid:])
		}
		dst = dst[:bestEnd]
	}
	return dst, true
}

// appendRooted appends AppendForm's serialization from root: the varints
// n and nBound and an anonymity flag, then, for each node of the
// breadth-first order from root that takes every node's unseen neighbors
// in port order, its identifier (omitted when anonymous), its degree and
// the order positions of its neighbors in port order. An edge's port at
// its far end needs no field of its own: it is where the near end's
// position sits in the far end's row. order and pos, of length n, are
// buffers for the order and its inverse. ok is false when the order misses
// a node or meets a port gap.
func (pt *Ports) appendRooted(dst []byte, order, pos []int, ids IDs, nBound, root int) ([]byte, bool) {
	n := len(pt.nbrByPort)
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = binary.AppendUvarint(dst, uint64(nBound))
	if ids == nil {
		dst = append(dst, 0)
	} else {
		dst = append(dst, 1)
	}
	for i := range pos {
		pos[i] = -1
	}
	order = order[:1]
	order[0], pos[root] = root, 0
	for k := 0; k < len(order); k++ {
		v := order[k]
		if ids != nil {
			dst = binary.AppendVarint(dst, int64(ids[v]))
		}
		dst = binary.AppendUvarint(dst, uint64(len(pt.nbrByPort[v])))
		for _, w := range pt.nbrByPort[v] {
			if w < 0 {
				return dst, false
			}
			if pos[w] < 0 {
				pos[w] = len(order)
				order = append(order, w)
			}
			dst = binary.AppendUvarint(dst, uint64(pos[w]))
		}
	}
	return dst, len(order) == n
}

// InducedPorts returns the restriction of pt to the subgraph sub of the
// original graph, where orig maps sub's nodes to original nodes (as
// returned by Graph.InducedSubgraph). Every surviving edge keeps its
// original port number at both endpoints.
//
// The result is generally NOT a valid Section 2.2 port assignment for sub:
// port numbers of vanished edges leave gaps, so the surviving numbers need
// not cover 1..deg. It exists for view bookkeeping — centralized extraction
// over a crash-induced subgraph must see exactly the port numbers the
// surviving nodes always had, which is what the fault-injected simulator's
// truncated views carry. Port and MustPort work as usual; Validate fails by
// design.
func InducedPorts(pt *Ports, sub *Graph, orig []int) (*Ports, error) {
	if len(orig) != sub.N() {
		return nil, fmt.Errorf("orig maps %d nodes, subgraph has %d", len(orig), sub.N())
	}
	out := &Ports{nbrByPort: make([][]int, sub.N())}
	var pbuf []int
	for v := 0; v < sub.N(); v++ {
		nbrs := sub.Neighbors(v)
		pbuf = pbuf[:0]
		maxPort := 0
		for _, w := range nbrs {
			p, err := pt.Port(orig[v], orig[w])
			if err != nil {
				return nil, fmt.Errorf("restricting ports: %w", err)
			}
			pbuf = append(pbuf, p)
			if p > maxPort {
				maxPort = p
			}
		}
		row := make([]int, maxPort)
		for i := range row {
			row[i] = -1
		}
		for i, w := range nbrs {
			row[pbuf[i]-1] = w
		}
		out.nbrByPort[v] = row
	}
	return out, nil
}

// Validate checks that pt is a consistent port assignment for g: every
// node's row has deg(v) ports, each leading to a distinct neighbor. It
// allocates nothing: a repeated neighbor is a row entry that already
// occurs at an earlier port of the row.
func (pt *Ports) Validate(g *Graph) error {
	if len(pt.nbrByPort) != g.N() {
		return fmt.Errorf("ports cover %d nodes, graph has %d", len(pt.nbrByPort), g.N())
	}
	for v, row := range pt.nbrByPort {
		if len(row) != g.Degree(v) {
			return fmt.Errorf("node %d has %d ports, want deg=%d", v, len(row), g.Degree(v))
		}
		for p0, w := range row {
			if !g.HasEdge(v, w) {
				return fmt.Errorf("port %d of node %d points to non-neighbor %d", p0+1, v, w)
			}
			if slices.Contains(row[:p0], w) {
				return fmt.Errorf("node %d has two ports to neighbor %d", v, w)
			}
		}
	}
	return nil
}
