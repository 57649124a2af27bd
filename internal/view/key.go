package view

import (
	"bytes"
	"slices"
	"unsafe"

	"hidinglcp/internal/mem"
)

// Key returns the canonical key as a string, for use as a map key: two
// views have the same key iff they are equal as views (same radius, same N
// bound, and isomorphic via a center-fixing, distance-preserving bijection
// that matches identifiers, labels, and ports). It is BinKey's bytes; the
// string shares them rather than copying, which is safe because a computed
// key is never written again.
func (v *View) Key() string {
	k := v.BinKey()
	return unsafe.String(unsafe.SliceData(k), len(k))
}

// Equal reports whether two views are equal in the sense of Key, by
// comparing their cached canonical keys.
func (v *View) Equal(w *View) bool {
	if v == w {
		return true
	}
	if v.N() != w.N() || v.Radius != w.Radius || v.NBound != w.NBound {
		return false
	}
	return string(v.BinKey()) == string(w.BinKey())
}

// cacheKey returns v's cached canonical key, first caching a private copy
// of k — which must be v's canonical key — when none is cached yet.
func (v *View) cacheKey(k []byte) []byte {
	v.cacheMu.Lock()
	defer v.cacheMu.Unlock()
	if v.cachedBin == nil {
		v.cachedBin = bytes.Clone(k)
	}
	return v.cachedBin
}

// idOrderSortCutoff is the view size above which idOrderInto switches from
// insertion sort to slices.SortFunc; below it the insertion sort wins on
// constant factors (see BenchmarkIDOrder for the crossover).
const idOrderSortCutoff = 24

// idOrderInto computes the nodes sorted by (distance, identifier) into
// sc.order and reports whether all identifiers are nonzero and distinct
// (the precondition for the identifier-determined canonical order).
func (v *View) idOrderInto(sc *keyScratch) bool {
	n := v.N()
	tmp := mem.Ints(sc.tmp, n)
	sc.tmp = tmp
	for i, id := range v.IDs {
		if id == 0 {
			return false
		}
		tmp[i] = id
	}
	slices.Sort(tmp)
	for i := 1; i < n; i++ {
		if tmp[i] == tmp[i-1] {
			return false
		}
	}
	order := mem.Ints(sc.order, n)
	sc.order = order
	for i := range order {
		order[i] = i
	}
	dist, ids := v.Dist, v.IDs
	if n > idOrderSortCutoff {
		slices.SortFunc(order, func(x, y int) int {
			if dist[x] != dist[y] {
				return dist[x] - dist[y]
			}
			return ids[x] - ids[y]
		})
		return true
	}
	// Insertion sort by (dist, id); small views.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			if dist[a] < dist[b] || (dist[a] == dist[b] && ids[a] < ids[b]) {
				break
			}
			order[j-1], order[j] = order[j], order[j-1]
		}
	}
	return true
}

// insertionSortInts sorts small int slices in place without the sort
// package's interface overhead; neighbor lists are tiny.
func insertionSortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
