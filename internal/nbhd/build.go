package nbhd

import (
	"encoding/binary"
	"fmt"
	"sort"

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
// shared view.Interner into dense handles, the accepting and loop sets are
// handle-indexed bool slices instead of map[string] tables, decoder calls
// go through a shared core.MemoDecoder (one inner Decide per view class
// across all workers), and per-instance view extraction reuses templates
// whenever the enumerator varies only the labeling of a fixed instance —
// the ShardedAllLabelings hot case.
//
// The interner and memo are shared across builders; everything else is
// private to one goroutine.
type builder struct {
	md    *core.MemoDecoder
	in    *view.Interner
	where string
	ex    view.Extractor
	anon  bool
	r     int

	accepting []bool
	loops     []bool
	edges     pairSet
	handles   []view.Handle

	// arena backs the instantiated candidate views: the interner may retain
	// any of them as a class representative, so they are slab-allocated and
	// released wholesale with the builder instead of one heap object per
	// template-memo miss.
	arena view.Arena
	// scratch probes the interner before any arena allocation: most
	// template-memo misses are still interner hits (another labeling or
	// another worker saw the class first), and for those the lookup view
	// never needs to outlive the absorb call.
	scratch view.View

	// Single-entry template cache, keyed on the identity of the instance's
	// label-independent parts.
	tG      *graph.Graph
	tPrt    *graph.Ports
	tNBound int
	tIDs    *int
	tpl     []*view.Template
	tEdges  [][2]int
	// tMemo[v] maps node v's host-labels key to the interned handle of its
	// view, so repeat neighborhood labelings of a cached instance skip
	// instantiation, canonicalization, and interning entirely.
	tMemo  []map[string]view.Handle
	keyBuf []byte

	// Plain (non-atomic) tallies, private to the owning goroutine; the
	// parallel driver reads them only after its WaitGroup barrier.
	nInstances      int64 // labeled instances absorbed
	nViews          int64 // views instantiated + interned (template-memo misses)
	nLookupHits     int64 // scratch-probe interner hits (no arena copy needed)
	nTmplMemoHits   int64 // views served from the per-node label-key memo
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
		b.nTemplatesBuilt++
		b.tMemo = make([]map[string]view.Handle, n)
		for v := range b.tMemo {
			b.tMemo[v] = make(map[string]view.Handle)
		}
	}

	handles := b.handles[:0]
	for v := range b.tpl {
		t := b.tpl[v]
		kb := b.keyBuf[:0]
		for _, w := range t.Hosts() {
			kb = appendLenPrefixed(kb, l.Labels[w])
		}
		b.keyBuf = kb
		if h, ok := b.tMemo[v][string(kb)]; ok {
			// The identical (template, neighborhood labels) pair was already
			// interned and decided by this builder.
			b.nTmplMemoHits++
			handles = append(handles, h)
			continue
		}
		b.nViews++
		// Probe with the scratch view first: on a hit (the common case) no
		// durable view is needed at all. Only a genuinely new class — or a
		// race where another worker interns it between Lookup and Intern,
		// which Intern resolves — pays for an arena-backed copy the interner
		// may retain as representative. DecideInterned never retains the
		// view (decoders are pure), so deciding on the scratch is safe.
		mu := t.InstantiateInto(&b.scratch, l.Labels)
		h, ok := b.in.Lookup(mu)
		if ok {
			b.nLookupHits++
		} else {
			mu = t.InstantiateIn(&b.arena, l.Labels)
			h = b.in.Intern(mu)
		}
		b.tMemo[v][string(kb)] = h
		handles = append(handles, h)
		b.grow(int(h) + 1)
		if !b.accepting[h] && b.md.DecideInterned(h, mu) {
			b.accepting[h] = true
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

// assemble keeps only accepting views and builds the NGraph in the
// deterministic canonical (legacy string) key-sorted node order — handle
// values depend on intern order and never leak into the output, so the
// result is bit-identical to the historical string-keyed construction.
// edges is the merged CSR pair stream: distinct packed handle pairs in
// ascending order (mergePairs). Distinct handle pairs map to distinct node
// pairs (the handle→index map is injective), so no HasEdge filtering is
// needed.
func assemble(in *view.Interner, accepting, loops []bool, edges []uint64) (*NGraph, error) {
	type node struct {
		h   view.Handle
		key string
	}
	nodes := make([]node, 0, len(accepting))
	for h, a := range accepting {
		if a {
			hh := view.Handle(h)
			nodes = append(nodes, node{hh, in.ViewOf(hh).Key()})
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].key < nodes[j].key })

	ng := &NGraph{
		views: make([]*view.View, len(nodes)),
		index: make(map[string]int, len(nodes)),
		in:    in,
		loops: make(map[int]bool),
	}
	idx := make([]int, in.Len())
	for i := range idx {
		idx[i] = -1
	}
	for i, nd := range nodes {
		ng.views[i] = in.ViewOf(nd.h)
		ng.index[nd.key] = i
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
