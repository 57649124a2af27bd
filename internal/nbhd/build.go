package nbhd

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"hidinglcp/internal/core"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/view"
)

// appendLenPrefixed appends s with a varint length prefix, making
// concatenations of several strings unambiguous.
func appendLenPrefixed(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// builder is one goroutine's accumulator for the Lemma 3.1 construction,
// running on the canonical-key fast path: views are deduplicated through a
// shared view.Interner into dense handles, the decided, accepting and loop
// sets are handle-indexed bool slices instead of map[string] tables, a
// builder consults the shared core.MemoDecoder (one inner Decide per view
// class across all workers) at most once per class, and views whose class
// the builder has already met skip canonicalization through the shape memo.
//
// The shape memo spans every instance the builder absorbs. It is keyed on a
// template's shape (view.Template.AppendShape) and the labels at the
// shape's canonical positions, a pair that determines the view class, so
// two nodes of different instances with isomorphic neighborhoods share one
// canonicalization, one interner probe and one decide. Shapes are computed
// lazily, on an instance's second labeling: the first labeling of every
// instance is canonicalized directly, so builds that see each instance once
// (ShardedFromLabeled, ShardedProverLabeled) pay nothing for the memo,
// while ShardedAllLabelings sweeps hit it on all but a few views.
//
// The interner and memo decoder are shared across builders; everything
// else, the shape memo included, is private to one goroutine.
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

	// arena backs the instantiated candidate views: the interner may retain
	// any of them as a class representative, so they are slab-allocated and
	// released wholesale with the builder instead of one heap object per
	// canonicalization.
	arena view.Arena
	// scratch probes the interner before any arena allocation: most
	// canonicalizations are still interner hits (another instance or
	// another worker saw the class first), and for those the lookup view
	// never needs to outlive the absorb call. probeKey holds the scratch's
	// canonical key, computed once per canonicalization and reused for the
	// intern on a lookup miss.
	scratch  view.View
	probeKey []byte

	// Single-entry template cache, keyed on the identity of the instance's
	// label-independent parts.
	tG      *graph.Graph
	tPrt    *graph.Ports
	tNBound int
	tIDs    *int
	tpl     []*view.Template
	tEdges  [][2]int
	// Once the cached instance's shapes are computed (tShape is empty
	// until then), tShape[v] is the shape id of node v's template (-1 when
	// unshaped) and tHosts[tHostAt[v]:tHostAt[v+1]] its host nodes in
	// canonical order.
	tShape  []int32
	tHostAt []int
	tHosts  []int

	// shapeIDs numbers the distinct shapes this builder has met, and memo
	// maps (shape id, labels at the canonical hosts) to the interned handle
	// of that view class. Both persist across instances.
	shapeIDs map[string]int32
	memo     map[string]view.Handle
	shapeBuf []byte
	keyBuf   []byte

	// Plain (non-atomic) tallies, private to the owning goroutine; the
	// parallel driver reads them only after its WaitGroup barrier.
	nInstances      int64 // labeled instances absorbed
	nViews          int64 // views canonicalized and probed in the interner
	nLookupHits     int64 // scratch-probe interner hits (no arena copy needed)
	nTmplMemoHits   int64 // views served from the shape memo
	nTemplatesBuilt int64 // template cache rebuilds (instance identity changed)
}

func newBuilder(d core.Decoder, md *core.MemoDecoder, in *view.Interner, where string) *builder {
	return &builder{
		md:       md,
		in:       in,
		where:    where,
		anon:     d.Anonymous(),
		r:        d.Rounds(),
		shapeIDs: make(map[string]int32),
		memo:     make(map[string]view.Handle),
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
	handles := b.handles[:0]
	if b.tpl == nil || b.tG != l.G || b.tPrt != l.Prt || b.tNBound != l.NBound || b.tIDs != idsHead {
		n := l.G.N()
		b.tpl = b.tpl[:0]
		for v := 0; v < n; v++ {
			t, err := b.ex.Template(l.G, l.Prt, ids, l.NBound, v, b.r)
			if err != nil {
				// Enumerators produce valid instances by construction.
				panic(fmt.Sprintf("%s: invalid instance from enumerator: %v", b.where, fmt.Errorf("node %d: %w", v, err)))
			}
			b.tpl = append(b.tpl, t)
		}
		b.tEdges = l.G.Edges()
		b.tG, b.tPrt, b.tNBound, b.tIDs = l.G, l.Prt, l.NBound, idsHead
		b.tShape = b.tShape[:0]
		b.nTemplatesBuilt++
		// First labeling of this instance: canonicalize directly.
		for _, t := range b.tpl {
			handles = append(handles, b.canonicalize(t, l.Labels))
		}
	} else {
		if len(b.tShape) == 0 {
			b.shapeTemplates()
		}
		for v, t := range b.tpl {
			id := b.tShape[v]
			if id < 0 {
				handles = append(handles, b.canonicalize(t, l.Labels))
				continue
			}
			kb := binary.AppendUvarint(b.keyBuf[:0], uint64(id))
			for _, w := range b.tHosts[b.tHostAt[v]:b.tHostAt[v+1]] {
				kb = appendLenPrefixed(kb, l.Labels[w])
			}
			b.keyBuf = kb
			h, ok := b.memo[string(kb)]
			if ok {
				// A view of this class was already interned and decided by
				// this builder.
				b.nTmplMemoHits++
			} else {
				h = b.canonicalize(t, l.Labels)
				b.memo[string(kb)] = h
			}
			handles = append(handles, h)
		}
	}
	b.handles = handles

	for _, e := range b.tEdges {
		ha, hb := handles[e[0]], handles[e[1]]
		if ha == hb {
			b.loops[ha] = true
			continue
		}
		b.edges.add(packPair(ha, hb))
	}
}

// shapeTemplates computes the cached instance's template shapes and
// numbers them in the builder-wide shape table.
func (b *builder) shapeTemplates() {
	b.tHostAt = append(b.tHostAt[:0], 0)
	b.tHosts = b.tHosts[:0]
	for _, t := range b.tpl {
		var ok bool
		b.shapeBuf, b.tHosts, ok = t.AppendShape(b.shapeBuf[:0], b.tHosts)
		id := int32(-1)
		if ok {
			var seen bool
			if id, seen = b.shapeIDs[string(b.shapeBuf)]; !seen {
				id = int32(len(b.shapeIDs))
				b.shapeIDs[string(b.shapeBuf)] = id
			}
		}
		b.tShape = append(b.tShape, id)
		b.tHostAt = append(b.tHostAt, len(b.tHosts))
	}
}

// canonicalize finds the class of t's view under labels, interning it if
// it is new, and decides it if this builder has not yet.
func (b *builder) canonicalize(t *view.Template, labels []string) view.Handle {
	b.nViews++
	// Probe with the scratch view first: on a hit (the common case) no
	// durable view is needed at all. Only a genuinely new class — or a race
	// where another worker interns it between LookupKey and InternKey,
	// which InternKey resolves — pays for an arena-backed copy the interner
	// may retain as representative; it is interned under the key already
	// in probeKey. DecideInterned never retains the view (decoders are
	// pure), so deciding on the scratch is safe.
	mu := t.InstantiateInto(&b.scratch, labels)
	b.probeKey = mu.AppendBinKey(b.probeKey[:0])
	h, ok := b.in.LookupKey(b.probeKey)
	if ok {
		b.nLookupHits++
	} else {
		mu = t.InstantiateIn(&b.arena, labels)
		h = b.in.InternKey(b.probeKey, mu)
	}
	b.grow(int(h) + 1)
	if !b.decided[h] {
		b.decided[h] = true
		b.accepting[h] = b.md.DecideInterned(h, mu)
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
// packed handle pairs in ascending order (mergePairs). Distinct handle
// pairs map to distinct node pairs (the handle→index map is injective), so
// no HasEdge filtering is needed.
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
		ia, ib := idx[a], idx[b]
		if ia < 0 || ib < 0 {
			continue // an endpoint never accepts anywhere
		}
		if err := ng.g.AddEdge(ia, ib); err != nil {
			return nil, fmt.Errorf("adding compatibility edge: %w", err)
		}
	}
	for h, lo := range loops {
		if lo {
			if i := idx[h]; i >= 0 {
				ng.loops[i] = true
			}
		}
	}
	return ng, nil
}
