package decoders

import (
	"fmt"
	"slices"

	"hidinglcp/internal/core"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/view"
)

// Watermelon returns the non-anonymous, strong, and hiding one-round LCP of
// Theorem 1.4 for 2-coloring on the class of watermelon graphs: two
// endpoints joined by internally disjoint paths of length at least 2. The
// certificate reveals a proper 2-EDGE-coloring of every path plus the
// endpoint identifiers and a per-path number; the node 2-coloring stays
// hidden along the paths. Certificates take O(log n) bits.
//
// Label formats:
//
//	WatermelonEndpointLabel(id1, id2)                      type 1
//	WatermelonPathLabel(id1, id2, path, q1, c1, q2, c2)    type 2
//
// with id1 < id2 the endpoint identifiers in increasing order; for a type-2
// node, qj is the far-end port of the edge behind own port j and cj its
// edge color (c1 != c2 by format).
func Watermelon() core.Scheme {
	return core.Scheme{
		Name:    "watermelon",
		Decoder: &watermelonDecoder{},
		Prover:  &watermelonProver{},
		Promise: core.Promise{
			Lang: core.TwoCol(),
			InClass: func(g *graph.Graph) bool {
				v1, v2, _, err := FindWatermelonStructure(g)
				return err == nil && g.IsBipartite() && v1 != v2
			},
		},
		CertBits: watermelonCertBits,
	}
}

// WatermelonEndpointLabel encodes a type-1 certificate.
func WatermelonEndpointLabel(id1, id2 int) string {
	return fmt.Sprintf("W1:%d:%d", id1, id2)
}

// WatermelonPathLabel encodes a type-2 certificate.
func WatermelonPathLabel(id1, id2, path, q1, c1, q2, c2 int) string {
	return fmt.Sprintf("W2:%d:%d:%d:%d,%d:%d,%d", id1, id2, path, q1, c1, q2, c2)
}

type melonCert struct {
	typ      int
	id1, id2 int
	path     int
	farPort  [3]int // indexed by own port 1, 2
	color    [3]int
}

// parseMelonCert parses one Watermelon certificate in place and reports
// whether it is well formed; the decoder's hot path builds no strings and
// no errors.
func parseMelonCert(label string) (melonCert, bool) {
	var c melonCert
	if len(label) < 3 || label[0] != 'W' || label[2] != ':' {
		return c, false
	}
	switch label[1] {
	case '1':
		var f [2]int
		if !scanNats(label[3:], ":", f[:]) {
			return c, false
		}
		c.typ, c.id1, c.id2 = 1, f[0], f[1]
		return c, c.id1 >= 1 && c.id2 > c.id1
	case '2':
		// id1:id2:path:q1,c1:q2,c2
		var f [7]int
		if !scanNats(label[3:], ":::,:,", f[:]) {
			return c, false
		}
		c.typ, c.id1, c.id2, c.path = 2, f[0], f[1], f[2]
		c.farPort = [3]int{0, f[3], f[5]}
		c.color = [3]int{0, f[4], f[6]}
		// Format requires the two incident edges differently colored
		// (Theorem 1.4 proof: "the format of ℓ indicates that the two
		// incident edges of each node have different colors").
		return c, c.id1 >= 1 && c.id2 > c.id1 && c.path >= 1 &&
			c.farPort[1] >= 1 && c.farPort[2] >= 1 &&
			c.color[1] <= 1 && c.color[2] <= 1 && c.color[1] != c.color[2]
	}
	return c, false
}

func watermelonCertBits(label string) int {
	c, ok := parseMelonCert(label)
	if !ok {
		return 8 * len(label)
	}
	bits := 1 + bitsForValue(c.id1) + bitsForValue(c.id2)
	if c.typ == 2 {
		bits += bitsForValue(c.path) + bitsForValue(c.farPort[1]) + bitsForValue(c.farPort[2]) + 2
	}
	return bits
}

type watermelonDecoder struct{}

var _ core.Decoder = (*watermelonDecoder)(nil)

func (d *watermelonDecoder) Rounds() int     { return 1 }
func (d *watermelonDecoder) Anonymous() bool { return false }

// Decide implements the decoder of Theorem 1.4 (conditions 1, 2(a)-(d),
// 3(a)-(c) of its proof). It parses the neighbours one at a time and
// returns false at the first malformed label or broken condition; every
// rejection is the same verdict, so the order of the checks does not
// matter.
func (d *watermelonDecoder) Decide(mu *view.View) bool {
	center := view.Center
	own, ok := parseMelonCert(mu.Labels[center])
	if !ok {
		return false
	}
	row := mu.Ports.Rows[center]
	if own.typ == 1 {
		// Condition 2(a): the node is one of the announced endpoints.
		if mu.IDs[center] != own.id1 && mu.IDs[center] != own.id2 {
			return false
		}
		var buf [8]int
		paths := buf[:0] // path numbers seen so far
		edgeColor := -1
		for p0, w := range row {
			if w < 0 {
				continue
			}
			c, ok := parseMelonCert(mu.Labels[w])
			// Condition 1: all neighbors agree on the endpoint identifiers.
			// Condition 2(b): all neighbors are path nodes whose entry for
			// the shared edge points back here.
			if !ok || c.id1 != own.id1 || c.id2 != own.id2 || c.typ != 2 {
				return false
			}
			j, ok := mu.Port(w, center) // neighbor's own port for the edge
			if !ok || j < 1 || j > 2 {
				return false
			}
			if c.farPort[j] != p0+1 {
				return false
			}
			// Condition 2(c): distinct path numbers across neighbors.
			if slices.Contains(paths, c.path) {
				return false
			}
			paths = append(paths, c.path)
			// Condition 2(d): all incident edges carry one color.
			if edgeColor == -1 {
				edgeColor = c.color[j]
			} else if edgeColor != c.color[j] {
				return false
			}
		}
		return true
	}
	// Type 2. Condition 3(a): exactly two neighbors, behind ports 1 and 2.
	if len(row) != 2 || row[0] < 0 || row[1] < 0 {
		return false
	}
	for p0, w := range row {
		c, ok := parseMelonCert(mu.Labels[w])
		// Condition 1: all neighbors agree on the endpoint identifiers.
		if !ok || c.id1 != own.id1 || c.id2 != own.id2 {
			return false
		}
		i := p0 + 1 // own port of this edge
		// Own entry must name the true far-end port.
		far, ok := mu.Port(w, center)
		if !ok || own.farPort[i] != far {
			return false
		}
		switch c.typ {
		case 1:
			// Condition 3(b): a type-1 neighbor is one of the endpoints.
			if mu.IDs[w] != own.id1 && mu.IDs[w] != own.id2 {
				return false
			}
		case 2:
			// Condition 3(c): same path number; the neighbor's entry for
			// the shared edge points back with the same color.
			if c.path != own.path {
				return false
			}
			j := own.farPort[i]
			if j < 1 || j > 2 {
				return false
			}
			if c.farPort[j] != i || c.color[j] != own.color[i] {
				return false
			}
		}
	}
	return true
}

// FindWatermelonStructure locates the endpoints v1, v2 and the node
// sequences of the internally disjoint paths of a watermelon graph. For a
// cycle (a 2-path watermelon with interchangeable endpoints) it picks the
// decomposition at nodes 0 and an opposite node preserving path lengths
// >= 2 and equal parity when possible. It returns an error if g is not a
// watermelon.
func FindWatermelonStructure(g *graph.Graph) (v1, v2 int, paths [][]int, err error) {
	if g.N() < 3 || !g.Connected() {
		return 0, 0, nil, fmt.Errorf("not a watermelon: too small or disconnected")
	}
	// Endpoint candidates: nodes of degree != 2 (there are 0 or 2 of them
	// in a watermelon).
	var special []int
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 2 {
			special = append(special, v)
		}
	}
	switch len(special) {
	case 0:
		// A cycle: choose v1 = 0 and v2 halfway around, biased to make the
		// two arc lengths share parity (possible iff the cycle is even).
		if !g.IsCycleGraph() {
			return 0, 0, nil, fmt.Errorf("not a watermelon: 2-regular but not a cycle")
		}
		n := g.N()
		half := n / 2
		if half < 2 {
			return 0, 0, nil, fmt.Errorf("cycle too short for paths of length >= 2")
		}
		v1 = 0
		// Walk the cycle to find the node at arc distance half.
		prev, cur := -1, 0
		for i := 0; i < half; i++ {
			next := -1
			for _, w := range g.Neighbors(cur) {
				if w != prev {
					next = w
					break
				}
			}
			prev, cur = cur, next
		}
		v2 = cur
	case 2:
		v1, v2 = special[0], special[1]
	default:
		return 0, 0, nil, fmt.Errorf("not a watermelon: %d nodes of degree != 2", len(special))
	}
	if g.HasEdge(v1, v2) {
		return 0, 0, nil, fmt.Errorf("not a watermelon: endpoints adjacent (a path of length 1)")
	}
	if !graph.IsWatermelon(g, v1, v2) {
		return 0, 0, nil, fmt.Errorf("not a watermelon with endpoints %d, %d", v1, v2)
	}
	// Trace each path from v1 to v2.
	for _, start := range g.Neighbors(v1) {
		path := []int{v1, start}
		prev, cur := v1, start
		for cur != v2 {
			next := -1
			for _, w := range g.Neighbors(cur) {
				if w != prev {
					next = w
					break
				}
			}
			if next == -1 {
				return 0, 0, nil, fmt.Errorf("path trace stuck at node %d", cur)
			}
			prev, cur = cur, next
			path = append(path, cur)
		}
		paths = append(paths, path)
	}
	return v1, v2, paths, nil
}

type watermelonProver struct{}

var _ core.Prover = (*watermelonProver)(nil)

// Certify 2-edge-colors every endpoint-to-endpoint path starting with color
// 0 at v1, numbers the paths, and publishes the sorted endpoint identifier
// pair everywhere, per the completeness part of Theorem 1.4. All paths
// share one parity in a bipartite watermelon, so the edges at v2 are
// monochromatic as condition 2(d) demands.
func (p *watermelonProver) Certify(inst core.Instance) ([]string, error) {
	g := inst.G
	if inst.IDs == nil {
		return nil, fmt.Errorf("watermelon scheme requires identifiers")
	}
	if !g.IsBipartite() {
		return nil, fmt.Errorf("graph is not bipartite")
	}
	v1, v2, paths, err := FindWatermelonStructure(g)
	if err != nil {
		return nil, err
	}
	id1, id2 := inst.IDs[v1], inst.IDs[v2]
	if id1 > id2 {
		id1, id2 = id2, id1
	}
	edgeColor := make(map[[2]int]int)
	for _, path := range paths {
		for i := 0; i+1 < len(path); i++ {
			edgeColor[normEdge(path[i], path[i+1])] = i % 2
		}
	}
	labels := make([]string, g.N())
	labels[v1] = WatermelonEndpointLabel(id1, id2)
	labels[v2] = WatermelonEndpointLabel(id1, id2)
	for pi, path := range paths {
		for _, u := range path[1 : len(path)-1] {
			var q, c [3]int
			for _, w := range g.Neighbors(u) {
				j := inst.Prt.MustPort(u, w)
				q[j] = inst.Prt.MustPort(w, u)
				c[j] = edgeColor[normEdge(u, w)]
			}
			labels[u] = WatermelonPathLabel(id1, id2, pi+1, q[1], c[1], q[2], c[2])
		}
	}
	return labels, nil
}
