package orderinv

import (
	"sort"

	"hidinglcp/internal/core"
	"hidinglcp/internal/view"
)

// OrderInvariantify wraps decoder d into the order-invariant decoder D' of
// Lemma 6.2: before deciding, the view's identifiers are remapped
// order-preservingly into the monochromatic set monoSet (the i-th smallest
// visible identifier becomes monoSet[i]). On any instance, D' depends only
// on the relative order of identifiers; on instances whose identifiers the
// remap fixes, D' agrees with d.
//
// The view must not contain more distinct identifiers than |monoSet|;
// otherwise D' rejects (the paper pads the identifier space instead, which
// the finite demonstration does not need).
func OrderInvariantify(d core.Decoder, monoSet []int) core.Decoder {
	sorted := append([]int(nil), monoSet...)
	sort.Ints(sorted)
	return core.NewDecoder(d.Rounds(), false, func(mu *view.View) bool {
		remapped, ok := remapViewIDs(mu, sorted)
		if !ok {
			return false
		}
		return d.Decide(remapped)
	})
}

// RemapViewIDs returns a copy of mu whose identifiers are replaced
// order-preservingly by the smallest values of the set target (which need
// not be sorted), or ok=false when the view carries more distinct
// identifiers than |target|. Besides OrderInvariantify above, the runtime
// decoder sanitizer (internal/sanitize) uses it to probe decoders for
// order-invariance violations.
func RemapViewIDs(mu *view.View, target []int) (*view.View, bool) {
	sorted := append([]int(nil), target...)
	sort.Ints(sorted)
	return remapViewIDs(mu, sorted)
}

// remapViewIDs returns a copy of mu whose identifiers are replaced
// order-preservingly by the smallest values of the ascending set target.
func remapViewIDs(mu *view.View, target []int) (*view.View, bool) {
	distinct := make([]int, 0, mu.N())
	seen := make(map[int]bool, mu.N())
	for _, id := range mu.IDs {
		if id == 0 || seen[id] {
			continue
		}
		seen[id] = true
		distinct = append(distinct, id)
	}
	if len(distinct) > len(target) {
		return nil, false
	}
	sort.Ints(distinct)
	remap := make(map[int]int, len(distinct))
	for i, id := range distinct {
		remap[id] = target[i]
	}
	// A deep copy: Anonymize would return an anonymous mu itself, and the
	// NBound raise below would write to the caller's view.
	out := mu.Clone()
	for i, id := range mu.IDs {
		if id != 0 {
			out.IDs[i] = remap[id]
		}
	}
	if mx := maxInt(target); out.NBound < mx {
		out.NBound = mx
	}
	return out, true
}

func maxInt(s []int) int {
	m := 0
	for _, x := range s {
		if x > m {
			m = x
		}
	}
	return m
}
