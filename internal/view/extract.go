package view

import (
	"fmt"

	"hidinglcp/internal/graph"
)

// Extractor owns reusable scratch (BFS queue, distance, local-index and
// known-node buffers) for radius-r view extraction, so the inner
// enumeration loops of the checkers stop allocating per call. An Extractor
// is deterministic — the views it produces are identical to those of the
// package-level Extract — and is NOT safe for concurrent use: give each
// goroutine its own (the sharded builders do exactly that; there is
// deliberately no sync.Pool).
//
// The zero value is ready to use.
type Extractor struct {
	epoch  int
	dist   []int
	dseen  []int
	local  []int
	known  []int
	queue  []int
	hosts  []int
	rowLen []int
}

// ensure sizes the scratch for a host graph of n nodes, in one allocation,
// and opens a new epoch, logically clearing the stamped buffers in O(1).
// The queue and hosts buffers get their full capacity up front, so the
// appends in buildTemplate never grow them.
func (ex *Extractor) ensure(n int) {
	if len(ex.dist) < n {
		buf := make([]int, 7*n)
		cut := func(l, c int) []int {
			s := buf[:l:c]
			buf = buf[c:]
			return s
		}
		ex.dist, ex.dseen, ex.local, ex.known = cut(n, n), cut(n, n), cut(n, n), cut(n, n)
		ex.rowLen = cut(n, n)
		ex.queue, ex.hosts = cut(0, n), cut(0, n)
	}
	ex.epoch++
}

// Extract is Extract from the package API, but reuses the Extractor's
// scratch across calls. The returned view is fully owned by the caller and
// never aliases the scratch.
func (ex *Extractor) Extract(g *graph.Graph, pt *graph.Ports, ids graph.IDs, labels []string, nBound, center, r int) (*View, error) {
	if err := checkTemplate(g, ids, center, r); err != nil {
		return nil, err
	}
	if len(labels) != g.N() {
		return nil, fmt.Errorf("labeling covers %d nodes, graph has %d", len(labels), g.N())
	}
	t := new(Template)
	ex.buildTemplate(t, g, pt, ids, nBound, center, r, nil)
	return t.Instantiate(labels), nil
}

// Template precomputes the label-independent part of a view — topology,
// distances, ports, identifiers, and the host-node mapping — so that
// sweeping many labelings of one instance only pays for the per-view label
// slice. Views instantiated from one template share the immutable Dist,
// Ports, and IDs structures (views are contractually immutable, so
// the sharing is safe). The template's storage is sized to the view.
// Given known nodes, the view is restricted to them as in TemplateInto.
func (ex *Extractor) Template(g *graph.Graph, pt *graph.Ports, ids graph.IDs, nBound, center, r int, known ...int32) (*Template, error) {
	if err := checkTemplate(g, ids, center, r); err != nil {
		return nil, err
	}
	t := new(Template)
	ex.buildTemplate(t, g, pt, ids, nBound, center, r, known)
	return t, nil
}

// TemplateInto is Template rebuilt in place for the decide-and-discard
// walks, which read each view once and drop it: dst's storage is reused,
// and grown for the whole host graph when it is too small, so a walk over
// the nodes of one graph grows it at most once. Every view instantiated
// from dst before the call reads the new template after it, so none may be
// retained.
//
// A nil known builds the view in the whole of g. Otherwise known lists the
// nodes of g the center has heard of, the center among them, and the
// search enters no other node: the template is the view in the subgraph of
// g induced by known, with the ports of g. A known node farther than r from
// the center in that subgraph is left out, so N() falls short of
// len(known).
func (ex *Extractor) TemplateInto(dst *Template, g *graph.Graph, pt *graph.Ports, ids graph.IDs, nBound, center, r int, known []int32) error {
	if err := checkTemplate(g, ids, center, r); err != nil {
		return err
	}
	// A view has at most n nodes and, ports being 1..degree, 2m port-row
	// entries.
	dst.reserve(3*g.N()+2*g.M(), g.N())
	ex.buildTemplate(dst, g, pt, ids, nBound, center, r, known)
	return nil
}

func checkTemplate(g *graph.Graph, ids graph.IDs, center, r int) error {
	if err := g.ValidateNode(center); err != nil {
		return fmt.Errorf("view center: %w", err)
	}
	if ids != nil && len(ids) != g.N() {
		return fmt.Errorf("identifier assignment covers %d nodes, graph has %d", len(ids), g.N())
	}
	if r < 0 {
		return fmt.Errorf("negative radius %d", r)
	}
	return nil
}

// Template is the label-independent part of one node's radius-r view. Its
// distances, identifiers, hosts and port rows are cut from one backing
// array, buf, and the rows' headers are one more, so a template costs three
// allocations; every view instantiated from it shares them, the rows
// through a pointer to the embedded table.
type Template struct {
	radius int
	nBound int
	// buf holds the distances at [0,n), then ids and hosts, then the port
	// rows. A rebuilt template may leave room past them, and past the row
	// headers.
	buf   []int
	ports PortRows
	ids   []int
	hosts []int
}

func (t *Template) dist() []int { return t.buf[:len(t.hosts):len(t.hosts)] }

// reserve makes buf hold at least ints entries, its length equal to its
// capacity, and the row headers at least rows.
func (t *Template) reserve(ints, rows int) {
	if cap(t.buf) < ints {
		t.buf = make([]int, ints)
	}
	if cap(t.ports.Rows) < rows {
		t.ports.Rows = make([][]int, rows)
	}
}

// Hosts returns the host-graph node at each local index (hosts[0] is the
// center). The slice is owned by the template; do not modify it.
func (t *Template) Hosts() []int { return t.hosts }

// N returns the number of nodes in views instantiated from the template.
func (t *Template) N() int { return len(t.hosts) }

// Instantiate builds the view for one labeling of the host graph. labels
// must cover the full host graph (len(labels) == host N); only the entries
// of visible nodes are read.
func (t *Template) Instantiate(labels []string) *View {
	return t.fill(new(View), make([]string, len(t.hosts)), labels)
}

// fill points v at the template's shared structures and at ls, which it
// fills with the labels of the visible nodes, and returns v. ls must have
// length N().
func (t *Template) fill(v *View, ls, labels []string) *View {
	for i, w := range t.hosts {
		ls[i] = labels[w]
	}
	v.Radius = t.radius
	v.Dist = t.dist()
	v.Ports = &t.ports
	v.IDs = t.ids
	v.Labels = ls
	v.NBound = t.nBound
	return v
}

// buildTemplate runs the truncated BFS, inside known when it is non-nil
// (see TemplateInto), and assembles the template in t, reusing t's storage
// when it is large enough. Both passes read each host's port row of pt, so
// g serves only for its node count. Inputs are pre-validated.
func (ex *Extractor) buildTemplate(t *Template, g *graph.Graph, pt *graph.Ports, ids graph.IDs, nBound, center, r int, known []int32) {
	ex.ensure(g.N())
	ep := ex.epoch
	dist, dseen, inKnown, rowLen := ex.dist, ex.dseen, ex.known, ex.rowLen
	for _, h := range known {
		inKnown[h] = ep
	}

	// BFS out to distance r. The FIFO queue visits nodes in nondecreasing
	// distance, so hosts comes out grouped by distance layer. Every node it
	// marks in dseen is queued, so the marked nodes are exactly the hosts.
	// When a node is dequeued, every node nearer the center is marked, and
	// the walk of its row marks its unmarked neighbors, so the walk also
	// sees which of its edges are visible: rowLen[w] ends as its largest
	// visible port, the length of its port row in the template.
	q := ex.queue[:0]
	dist[center], dseen[center] = 0, ep
	q = append(q, center)
	rowTotal := 0
	for qi := 0; qi < len(q); qi++ {
		w := q[qi]
		frontier := dist[w] == r
		rowLen[w] = 0
		for p0, x := range pt.Row(w) {
			switch {
			case x < 0:
				continue
			case dseen[x] == ep:
				// Frontier truncation: an edge between two distance-r
				// nodes is not part of G_v^r.
				if frontier && dist[x] == r {
					continue
				}
			case frontier || (known != nil && inKnown[x] != ep):
				continue
			default:
				dseen[x] = ep
				dist[x] = dist[w] + 1
				q = append(q, x)
			}
			rowLen[w] = p0 + 1
		}
		rowTotal += rowLen[w]
	}
	ex.queue = q

	// Local nodes sorted by (distance, host index): sort each distance
	// layer by host index.
	hosts := append(ex.hosts[:0], q...)
	for lo := 0; lo < len(hosts); {
		hi := lo + 1
		for hi < len(hosts) && dist[hosts[hi]] == dist[hosts[lo]] {
			hi++
		}
		insertionSortInts(hosts[lo:hi])
		lo = hi
	}
	ex.hosts = hosts

	local := ex.local
	for i, w := range hosts {
		local[w] = i
	}

	// One backing array carries dist, ids, hosts and the port rows; capped
	// subslices keep the template fields independent. A rebuilt template
	// reuses it and the row headers, so every field is rewritten below: the
	// identifiers even when there are none, the headers even of nodes with
	// no visible edge.
	nv := len(hosts)
	t.reserve(3*nv+rowTotal, nv)
	buf := t.buf
	t.radius, t.nBound = r, nBound
	t.ports.Rows = t.ports.Rows[:nv]
	t.ids, t.hosts = buf[nv:2*nv:2*nv], buf[2*nv:3*nv:3*nv]
	copy(t.hosts, hosts)
	for i, w := range hosts {
		buf[i] = dist[w]
		t.ids[i] = 0
		if ids != nil {
			t.ids[i] = ids[w]
		}
	}
	backing := buf[3*nv:]
	start := 0
	for i, w := range hosts {
		l := rowLen[w]
		if l == 0 {
			t.ports.Rows[i] = nil
			continue
		}
		row := backing[start : start+l : start+l]
		start += l
		for p0, x := range pt.Row(w)[:l] {
			row[p0] = -1
			if x >= 0 && dseen[x] == ep && (dist[w] < r || dist[x] < r) {
				row[p0] = local[x]
			}
		}
		t.ports.Rows[i] = row
	}
}
