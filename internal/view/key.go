package view

import (
	"bytes"
	"unsafe"
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

// insertionSortInts sorts small int slices in place without the sort
// package's interface overhead; neighbor lists are tiny.
func insertionSortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
