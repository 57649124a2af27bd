// Package nbhd implements the accepting neighborhood graph V(D, n) of
// Section 3 of the paper and the hiding characterization of Lemma 3.2.
//
// The node set of V(D, n) is AViews(D, n): every view that D accepts in some
// labeled yes-instance. Two views are joined by an edge iff they are
// yes-instance-compatible: some labeled yes-instance has an edge {u, v} with
// view(u) = μ1 and view(v) = μ2 (the witnessing instance need not accept at
// u or v — membership in AViews may be witnessed elsewhere). Adjacent nodes
// with identical views yield a self-loop, which the paper's graph model
// permits; a looped view makes V(D, n) non-k-colorable for every k.
//
// Lemma 3.1 constructs V(D, n) by enumerating all labeled yes-instances of
// size at most n. We parametrize the construction by an instance enumerator
// so that the promise classes of the paper (even cycles, minimum degree one,
// shatter point, watermelon) can each supply their own family. Finding an
// odd cycle among the enumerated slice proves hiding (the slice is a
// subgraph of the true V(D, n)); concluding NOT hiding requires the
// enumerator to be exhaustive for the class, which we only do on micro
// universes.
package nbhd

import (
	"hidinglcp/internal/core"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/view"
)

// Enumerator yields labeled yes-instances. Enumeration stops early when
// yield returns false.
type Enumerator func(yield func(core.Labeled) bool) error

// NGraph is (a slice of) the accepting neighborhood graph V(D, n).
type NGraph struct {
	views []*view.View   // views[i] is a representative of node i
	index map[string]int // canonical view key -> node index
	in    *view.Interner // the build's interner, for handle-based probes
	hidx  []int          // interner handle -> node index, -1 if not accepting
	g     *graph.Graph   // loop-free compatibility edges
	loops map[int]bool   // views adjacent to themselves in some yes-instance
}

// Size returns the number of accepting views (nodes of V(D, n)).
func (ng *NGraph) Size() int { return len(ng.views) }

// EdgeCount returns the number of loop-free compatibility edges.
func (ng *NGraph) EdgeCount() int { return ng.g.M() }

// LoopCount returns the number of self-looped views.
func (ng *NGraph) LoopCount() int { return len(ng.loops) }

// ViewAt returns the representative view of node i.
func (ng *NGraph) ViewAt(i int) *view.View { return ng.views[i] }

// IndexOf returns the node index of the view with the given canonical key,
// or -1 if the view is not an accepting view of the slice.
func (ng *NGraph) IndexOf(key string) int {
	if i, ok := ng.index[key]; ok {
		return i
	}
	return -1
}

// IndexOfView returns the node index of mu's view class, or -1 if mu is not
// an accepting view of the slice. It resolves through the build's interner
// handle — one binary-key probe of the striped intern table, then a dense
// handle→index slice — which is both cheaper than a dedicated key→index map
// and free of the per-node string-cast copies the old map cost at assembly;
// callers on the hot path (the Lemma 3.2 extraction decoder, the
// forgetfulness walks) use it instead of IndexOf(mu.Key()).
func (ng *NGraph) IndexOfView(mu *view.View) int {
	if ng.in == nil {
		return -1
	}
	if h, ok := ng.in.Lookup(mu); ok && int(h) < len(ng.hidx) {
		return ng.hidx[h]
	}
	return -1
}

// Graph exposes the loop-free part of the compatibility graph.
func (ng *NGraph) Graph() *graph.Graph { return ng.g }

// HasLoop reports whether node i carries a self-loop.
func (ng *NGraph) HasLoop(i int) bool { return ng.loops[i] }

// IsKColorable reports whether V(D, n) is k-colorable. Any self-loop makes
// the graph non-colorable.
func (ng *NGraph) IsKColorable(k int) bool {
	if len(ng.loops) > 0 {
		return false
	}
	return ng.g.IsKColorable(k)
}

// KColoring returns a proper k-coloring of V(D, n) if one exists. The
// coloring is deterministic (first found by ordered backtracking), matching
// the canonical coloring used by the extraction decoder of Lemma 3.2.
func (ng *NGraph) KColoring(k int) ([]int, bool) {
	if len(ng.loops) > 0 {
		return nil, false
	}
	return ng.g.KColoring(k)
}

// OddCycle returns the node indices of an odd cycle of V(D, n): either a
// single self-looped view (length-1 odd closed walk) or an odd cycle of the
// loop-free part. It returns nil if V(D, n) is bipartite, which by
// Lemma 3.2 means the decoder is not hiding at this n (for an exhaustive
// enumerator).
func (ng *NGraph) OddCycle() []int {
	for i := 0; i < ng.Size(); i++ {
		if ng.loops[i] {
			return []int{i}
		}
	}
	return ng.g.OddCycle()
}

// Hiding applies the Lemma 3.2 characterization for 2-coloring on this
// slice: the decoder is hiding if the slice contains an odd cycle. A nil
// cycle only implies "not hiding" when the enumerator was exhaustive.
func (ng *NGraph) Hiding() bool {
	return ng.OddCycle() != nil
}
