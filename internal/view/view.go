// Package view implements the radius-r views of Section 2.2 of the paper:
// the structure a node of the distributed verifier sees after r rounds of
// communication. A view comprises the graph G_v^r (full structure up to r-1
// hops; no edges between two nodes both at distance exactly r), together with
// the restrictions of the port assignment, the identifier assignment, and the
// label (certificate) assignment to N^r(v).
//
// Views support canonical serialization (for hashing into the accepting
// neighborhood graph of Section 3), anonymization, radius-1 subviews, and the
// node-in-view compatibility relation of Section 5.1.
package view

import (
	"fmt"
	"sync"

	"hidinglcp/internal/graph"
)

// View is the radius-r view of a single node. Local nodes are numbered
// 0..N-1 with the center always local node 0 and nodes sorted by
// (distance from center, host-graph index) at extraction time.
//
// The canonical key (BinKey) relies on two properties of every view: the
// ports at each node are distinct, and every node is reachable from the
// center through visible edges. The three producers of views guarantee
// both: Extract and Template, internal/sim's assemble and
// internal/sanitize's relabelView. A hand-built view must too.
//
// Views are immutable after extraction.
type View struct {
	// Radius is the r of view_r.
	Radius int
	// Adj is the local adjacency structure of G_v^r (sorted neighbor lists).
	Adj [][]int
	// Dist[i] is the distance of local node i from the center.
	Dist []int
	// Ports maps the ordered local pair (i, j) of a visible edge to
	// prt(i, {i,j}). Both orientations are present for every visible edge.
	Ports map[[2]int]int
	// IDs[i] is the identifier of local node i, or 0 everywhere if the view
	// has been anonymized.
	IDs []int
	// Labels[i] is the certificate of local node i (an opaque string; the
	// per-scheme encodings measure their own bit sizes).
	Labels []string
	// NBound is the common upper bound N = poly(n) on identifiers that is
	// part of every node's input (Section 2.2).
	NBound int

	// cacheMu guards the lazily computed canonical key below. Views are
	// immutable after extraction, so the cache is write-once; clones start
	// with an empty cache and never share it with the original.
	cacheMu   sync.Mutex
	cachedBin []byte
}

// Center is the local index of the view's center node; always 0.
const Center = 0

// N returns the number of nodes in the view.
func (v *View) N() int { return len(v.Adj) }

// Degree returns the local degree of node i.
func (v *View) Degree(i int) int { return len(v.Adj[i]) }

// Port returns the port number prt(i, {i,j}) of the visible edge (i, j) and
// whether the edge is visible.
func (v *View) Port(i, j int) (int, bool) {
	p, ok := v.Ports[[2]int{i, j}]
	return p, ok
}

// Anonymous reports whether the view carries no identifiers.
func (v *View) Anonymous() bool {
	for _, id := range v.IDs {
		if id != 0 {
			return false
		}
	}
	return true
}

// Anonymize returns a view with all identifiers erased (set to 0): a copy
// when v carries identifiers, and v itself when it is already anonymous
// (views are immutable, so the shared value is safe). Anonymous decoders and
// the anonymous hiding property work on anonymized views.
func (v *View) Anonymize() *View {
	if v.Anonymous() {
		return v
	}
	c := v.clone()
	for i := range c.IDs {
		c.IDs[i] = 0
	}
	return c
}

// Clone returns a deep copy of v sharing no mutable state with the
// original. The runtime decoder sanitizer (internal/sanitize) uses it to
// snapshot views before and after Decide calls; views are contractually
// immutable, so regular callers never need it.
func (v *View) Clone() *View { return v.clone() }

func (v *View) clone() *View {
	c := &View{
		Radius: v.Radius,
		Adj:    make([][]int, len(v.Adj)),
		Dist:   append([]int(nil), v.Dist...),
		Ports:  make(map[[2]int]int, len(v.Ports)),
		IDs:    append([]int(nil), v.IDs...),
		Labels: append([]string(nil), v.Labels...),
		NBound: v.NBound,
	}
	for i := range v.Adj {
		c.Adj[i] = append([]int(nil), v.Adj[i]...)
	}
	for k, p := range v.Ports {
		c.Ports[k] = p
	}
	return c
}

// LocalNodeWithID returns the local index of the node carrying identifier
// id, or -1 if absent. Identifier 0 (anonymized) never matches.
func (v *View) LocalNodeWithID(id int) int {
	if id == 0 {
		return -1
	}
	for i, x := range v.IDs {
		if x == id {
			return i
		}
	}
	return -1
}

// Extract computes view_r(G, prt, Id, I)(center) per Section 2.2. labels has
// one certificate string per node of g; ids may be nil for an anonymous
// instance. nBound is the identifier bound N known to all nodes (pass
// g.N() when irrelevant).
//
// The view's node set is N^r(center); edges between two nodes both at
// distance exactly r are invisible and omitted, as are their ports.
func Extract(g *graph.Graph, pt *graph.Ports, ids graph.IDs, labels []string, nBound, center, r int) (*View, error) {
	var ex Extractor
	return ex.Extract(g, pt, ids, labels, nBound, center, r)
}

// MustExtract is Extract but panics on error; for inputs valid by
// construction.
func MustExtract(g *graph.Graph, pt *graph.Ports, ids graph.IDs, labels []string, nBound, center, r int) *View {
	v, err := Extract(g, pt, ids, labels, nBound, center, r)
	if err != nil {
		panic(fmt.Sprintf("view.MustExtract: %v", err))
	}
	return v
}

// String renders a debug representation. The canonical key appears only as
// KeyDigest's redacted fingerprint: views carry certificate bytes in their
// labels, String output flows into error messages and logs (e.g. the
// sanitizer's violation reports), and the hiding contract forbids label
// bytes in anything an observer can read. Lengths and digests only.
func (v *View) String() string {
	return fmt.Sprintf("View(r=%d, n=%d, key=%s)", v.Radius, v.N(), v.KeyDigest())
}

// KeyDigest returns a redacted fingerprint of the canonical key — its byte
// length and a 32-bit FNV-1a digest — sufficient to tell two view classes
// apart in diagnostics without revealing the label bytes the key embeds.
// It is one of the sanctioned sanitizers of the certflow taint analyzer.
func (v *View) KeyDigest() string {
	k := v.BinKey()
	h := uint32(2166136261)
	for i := 0; i < len(k); i++ {
		h = (h ^ uint32(k[i])) * 16777619
	}
	return fmt.Sprintf("fnv32a:%08x#%d", h, len(k))
}
