package view

import "hidinglcp/internal/mem"

// Arena is slab storage for views whose lifetime is tied to one build: the
// nbhd builders instantiate candidate views from an arena because the
// interner may retain any of them as a class representative, so individual
// reclamation is impossible — but the whole arena dies with the build. Per
// the internal/mem escape rules, pointers into the arena are safe to hand
// out (they stay valid as long as the arena is reachable); an Arena is not
// safe for concurrent use.
type Arena struct {
	views  mem.Slab[View]
	labels mem.SliceSlab[string]
}

// NewView returns a zero View allocated from the arena.
func (a *Arena) NewView() *View { return a.views.Alloc() }

// Labels returns an uninitialized label slice of length n from the arena.
func (a *Arena) Labels(n int) []string { return a.labels.Make(n) }

// InstantiateIn is Instantiate with the View and its label slice allocated
// from the arena: the steady-state cost is two bump-pointer increments
// instead of two heap objects. The returned view is immutable and shares
// the template's label-independent structures, exactly like Instantiate.
func (t *Template) InstantiateIn(a *Arena, labels []string) *View {
	return t.fill(a.NewView(), a.Labels(len(t.hosts)), labels)
}

// InstantiateInto refills dst with the view for one labeling of the host
// graph, reusing dst's label-slice capacity and resetting the cached
// canonical key. It exists for the decide-and-discard walks (strong
// soundness search, core.Labeled.EachView), where the view never outlives
// the decoder call: the result is dst itself, valid only until the next
// InstantiateInto on the same dst, and must not be retained, interned, or
// published to another goroutine. dst must be a scratch view owned by the
// caller. A label slice too small is regrown to the host graph's size, so
// views of one host graph regrow it at most once.
func (t *Template) InstantiateInto(dst *View, labels []string) *View {
	n := len(t.hosts)
	ls := dst.Labels
	if cap(ls) < n {
		ls = make([]string, n, len(labels))
	}
	dst.cachedBin = nil
	return t.fill(dst, ls[:n], labels)
}
