package nbhd

import (
	"bytes"
	"fmt"
	"slices"

	"hidinglcp/internal/core"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/view"
)

// builder is one goroutine's accumulator for the Lemma 3.1 construction,
// running on the canonical-key fast path: views are deduplicated through a
// shared view.Interner into dense handles, the decided, accepting and loop
// sets are handle-indexed bool slices instead of map[string] tables, and a
// builder consults the shared core.MemoDecoder (one inner Decide per view
// class across all workers) at most once per class.
//
// Keys come from skeletons. When the cached instance changes, the builder
// writes each node's template skeleton (view.Template.SkeletonInto) into a
// reused buffer; after that, a view's key is its skeleton with the labels
// spliced in (view.Skeleton.AppendKey), probed with Interner.LookupKey. A
// view is instantiated only on an interner miss, and the first decide of a
// class the builder has not met runs on the interner's representative.
//
// Only edges and loops between accepting classes are accumulated, the only
// ones assemble keeps: every handle of an absorbed instance has been
// decided by this builder, and a verdict depends only on the class.
//
// The interner and memo decoder are shared across builders; everything
// else is private to one goroutine.
type builder struct {
	md    *core.MemoDecoder
	in    *view.Interner
	where string
	ex    view.Extractor
	anon  bool
	r     int

	// decided[h] records that this builder has consulted md for class h;
	// accepting[h] is then md's verdict.
	decided   []bool
	accepting []bool
	loops     []bool
	edges     pairSet
	handles   []view.Handle

	// arena backs the views instantiated on interner misses: the interner
	// retains each as its class representative, so they are slab-allocated
	// and released wholesale with the builder instead of one heap object
	// per class.
	arena view.Arena
	// keyBuf holds the current view's spliced key, reused across views.
	keyBuf []byte

	// Single-entry template cache, keyed on the identity of the instance's
	// label-independent parts: tpl[v] is node v's template and skel[v] its
	// skeleton. skel only grows, so its buffers are reused across
	// instances.
	tG      *graph.Graph
	tPrt    *graph.Ports
	tNBound int
	tIDs    *int
	tpl     []*view.Template
	skel    []view.Skeleton
	tEdges  [][2]int

	// Plain (non-atomic) tallies, private to the owning goroutine; the
	// parallel driver reads them only after its WaitGroup barrier.
	nInstances      int64 // labeled instances absorbed
	nViews          int64 // views keyed and probed in the interner
	nLookupHits     int64 // LookupKey hits (no instantiation needed)
	nTemplatesBuilt int64 // template cache rebuilds (instance identity changed)
}

func newBuilder(d core.Decoder, md *core.MemoDecoder, in *view.Interner, where string) *builder {
	return &builder{
		md:    md,
		in:    in,
		where: where,
		anon:  d.Anonymous(),
		r:     d.Rounds(),
	}
}

func (b *builder) grow(n int) {
	if n > len(b.accepting) {
		b.decided = append(b.decided, make([]bool, n-len(b.decided))...)
		b.accepting = append(b.accepting, make([]bool, n-len(b.accepting))...)
		b.loops = append(b.loops, make([]bool, n-len(b.loops))...)
	}
}

// absorb folds one labeled instance into the builder.
func (b *builder) absorb(l core.Labeled) {
	b.nInstances++
	ids := l.IDs
	if b.anon {
		// Anonymous decoders are keyed and decided on anonymized views;
		// extracting without identifiers produces them directly, without
		// the legacy per-view Anonymize clone.
		ids = nil
	}
	var idsHead *int
	if len(ids) > 0 {
		idsHead = &ids[0]
	}
	if b.tpl == nil || b.tG != l.G || b.tPrt != l.Prt || b.tNBound != l.NBound || b.tIDs != idsHead {
		b.cacheTemplates(l, ids)
		b.tG, b.tPrt, b.tNBound, b.tIDs = l.G, l.Prt, l.NBound, idsHead
	}
	handles := b.handles[:0]
	for v, t := range b.tpl {
		handles = append(handles, b.canonicalize(t, &b.skel[v], l.Labels))
	}
	b.handles = handles

	for _, e := range b.tEdges {
		ha, hb := handles[e[0]], handles[e[1]]
		if !b.accepting[ha] || !b.accepting[hb] {
			continue
		}
		if ha == hb {
			b.loops[ha] = true
			continue
		}
		b.edges.add(packPair(ha, hb))
	}
}

// cacheTemplates extracts the templates of l's nodes and writes their
// skeletons into the builder's reused buffers.
func (b *builder) cacheTemplates(l core.Labeled, ids graph.IDs) {
	n := l.G.N()
	b.tpl = b.tpl[:0]
	if len(b.skel) < n {
		b.skel = append(b.skel, make([]view.Skeleton, n-len(b.skel))...)
	}
	for v := 0; v < n; v++ {
		t, err := b.ex.Template(l.G, l.Prt, ids, l.NBound, v, b.r)
		if err != nil {
			// Enumerators produce valid instances by construction.
			panic(fmt.Sprintf("%s: invalid instance from enumerator: %v", b.where, fmt.Errorf("node %d: %w", v, err)))
		}
		b.tpl = append(b.tpl, t)
		t.SkeletonInto(&b.skel[v])
	}
	b.tEdges = l.G.Edges()
	b.nTemplatesBuilt++
}

// canonicalize finds the class of t's view under labels through its
// skeleton sk, interning it if it is new, and decides it if this builder
// has not yet.
func (b *builder) canonicalize(t *view.Template, sk *view.Skeleton, labels []string) view.Handle {
	b.nViews++
	// On a hit (the common case) no view is instantiated at all. Only a
	// genuinely new class — or a race where another worker interns it
	// between LookupKey and InternKey, which InternKey resolves — pays for
	// an arena-backed view the interner may retain as representative.
	b.keyBuf = sk.AppendKey(b.keyBuf[:0], labels)
	h, ok := b.in.LookupKey(b.keyBuf)
	if ok {
		b.nLookupHits++
	} else {
		h = b.in.InternKey(b.keyBuf, t.InstantiateIn(&b.arena, labels))
	}
	b.grow(int(h) + 1)
	if !b.decided[h] {
		b.decided[h] = true
		b.accepting[h] = b.md.DecideInterned(h, b.in.ViewOf(h))
	}
	return h
}

// mergeBuilders unions the per-worker accepting/loop sets and CSR edge
// streams. Handles are global (one shared interner), so the union is
// positional; the merged edge pairs come back sorted and deduplicated
// (mergePairs).
func mergeBuilders(parts []*builder) (accepting, loops []bool, edges []uint64) {
	maxLen := 0
	for _, p := range parts {
		if len(p.accepting) > maxLen {
			maxLen = len(p.accepting)
		}
	}
	accepting = make([]bool, maxLen)
	loops = make([]bool, maxLen)
	for _, p := range parts {
		for h, a := range p.accepting {
			if a {
				accepting[h] = true
			}
		}
		for h, lo := range p.loops {
			if lo {
				loops[h] = true
			}
		}
	}
	return accepting, loops, mergePairs(parts)
}

// assemble keeps only accepting views and builds the NGraph with its nodes
// in canonical-key (BinKey) byte order — handle values depend on intern
// order and never leak into the output, so the result does not depend on
// sharding or scheduling. edges is the merged CSR pair stream: distinct
// packed pairs of accepting handles in ascending order, and loops marks
// accepting handles only (the builders drop the rest at absorb;
// mergePairs sorts). Distinct handle pairs map to distinct node pairs (the
// handle→index map is injective), so no HasEdge filtering is needed.
func assemble(in *view.Interner, accepting, loops []bool, edges []uint64) (*NGraph, error) {
	type node struct {
		h   view.Handle
		key []byte
	}
	nodes := make([]node, 0, len(accepting))
	for h, a := range accepting {
		if a {
			hh := view.Handle(h)
			nodes = append(nodes, node{hh, in.ViewOf(hh).BinKey()})
		}
	}
	slices.SortFunc(nodes, func(a, b node) int { return bytes.Compare(a.key, b.key) })

	ng := &NGraph{
		views: make([]*view.View, len(nodes)),
		in:    in,
		loops: make(map[int]bool),
	}
	idx := make([]int, in.Len())
	for i := range idx {
		idx[i] = -1
	}
	for i, nd := range nodes {
		ng.views[i] = in.ViewOf(nd.h)
		idx[nd.h] = i
	}
	ng.hidx = idx
	ng.g = graph.New(len(nodes))
	for _, e := range edges {
		a, b := unpackPair(e)
		if err := ng.g.AddEdge(idx[a], idx[b]); err != nil {
			return nil, fmt.Errorf("adding compatibility edge: %w", err)
		}
	}
	for h, lo := range loops {
		if lo {
			ng.loops[idx[h]] = true
		}
	}
	return ng, nil
}
