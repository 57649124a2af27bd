package view

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strings"

	"hidinglcp/internal/mem"
)

// keyScratch holds every per-call buffer of the canonical-key computation:
// orderings, refinement colors, flat arm storage, and the serialization
// candidates. The buffers are recycled through keyScratchPool; nothing
// reachable from a scratch may be returned to a caller — the final key is
// always appended to the caller's buffer (see the escape rules of
// internal/mem).
type keyScratch struct {
	ord, color, next []int // refinement working set
	armStart, armNbr []int
	armPorts         [][2]int
	arms             [][3]int
	classNodes       []int    // center + color-grouped rest; classes subslice it
	classes          [][]int  // class headers over classNodes
	tmp              []int    // idOrder duplicate detection
	order, pos       []int    // serialization ordering and its inverse
	cand, best       []byte   // minimization candidates
	noLabels         []string // all empty: a template's views without labels
}

var keyScratchPool mem.Pool[keyScratch]

// BinKey returns the canonical key of the view: two views have the same
// key iff they are equal as views (see Key). The encoding is an
// append-to-[]byte varint serialization — no fmt, no string joins —
// minimized over the node orderings that respect a Weisfeiler-Leman-style
// refinement run over integer color arrays. When the identifiers are
// nonzero and distinct they fix the ordering and no search is needed.
//
// The key is computed once and cached (AppendBinKey is the uncached form).
// The returned slice is shared; the caller must not modify it.
func (v *View) BinKey() []byte {
	v.cacheMu.Lock()
	k := v.cachedBin
	if k == nil {
		k = v.AppendBinKey(nil)
		v.cachedBin = k
	}
	v.cacheMu.Unlock()
	return k
}

// AppendBinKey appends the canonical key of the view to dst and returns the
// extended slice. Unlike BinKey it neither reads nor fills the view's key
// cache, so a caller that probes with a reused buffer — the nbhd builders
// canonicalizing a scratch view — pays no allocation once dst has grown.
func (v *View) AppendBinKey(dst []byte) []byte {
	sc := keyScratchPool.Get()
	defer keyScratchPool.Put(sc)
	if v.idOrderInto(sc) {
		sc.pos = mem.Ints(sc.pos, v.N())
		return v.appendBinSerialize(dst, sc.order, sc.pos)
	}
	return v.minBinKey(dst, sc)
}

// AppendShape appends the template's shape to dst and the host node at
// each of its canonical positions to hosts, and returns both. The shape is
// the serialization of the template's views with every label empty, under
// the order of their label-free refinement. That order is a function of the
// unlabeled view's isomorphism class, so two templates with equal shapes
// are isomorphic position by position. Labeled views instantiated from them
// are then in the same class exactly when they carry the same labels at the
// same canonical positions, which lets a caller memoize canonical keys by
// (shape, labels in canonical order) across instances.
//
// ok is false, with dst and hosts returned unchanged, when the refinement
// is not discrete: only then could an automorphism make the canonical
// positions ambiguous. Extract never builds such templates — the ports at
// the center separate its neighbors and each node's ports separate its
// children — so that branch exists only to stay exact on arbitrary input.
// Apart from growing dst and hosts, the call allocates nothing.
func (t *Template) AppendShape(dst []byte, hosts []int) (shape []byte, canonHosts []int, ok bool) {
	sc := keyScratchPool.Get()
	defer keyScratchPool.Put(sc)
	n := len(t.hosts)
	if cap(sc.noLabels) < n {
		sc.noLabels = make([]string, n)
	}
	v := View{Radius: t.radius, Adj: t.adj, Dist: t.dist, Ports: t.ports, IDs: t.ids, Labels: sc.noLabels[:n], NBound: t.nBound}
	classes := v.refinedClassesInt(sc)
	if len(classes) != n {
		return dst, hosts, false
	}
	order := mem.Ints(sc.order, n)[:0]
	for _, c := range classes {
		order = append(order, c[0])
	}
	sc.order = order
	sc.pos = mem.Ints(sc.pos, n)
	dst = v.appendBinSerialize(dst, order, sc.pos)
	for _, i := range order {
		hosts = append(hosts, t.hosts[i])
	}
	return dst, hosts, true
}

// appendBinSerialize renders the view under the given node ordering into
// dst: a varint header (radius, n, NBound), per node (dist, id,
// length-prefixed label), then every visible edge as (ka, kb, port a→b,
// port b→a) for positions ka < kb in increasing (ka, kb) order. Every field
// is self-delimiting, so the encoding determines the ordered view — equal
// bytes mean equal views under the chosen orderings.
func (v *View) appendBinSerialize(dst []byte, order, pos []int) []byte {
	n := v.N()
	if dst == nil {
		dst = make([]byte, 0, 16+8*n)
	}
	dst = binary.AppendUvarint(dst, uint64(v.Radius))
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = binary.AppendUvarint(dst, uint64(v.NBound))
	for _, i := range order {
		dst = binary.AppendUvarint(dst, uint64(v.Dist[i]))
		dst = binary.AppendVarint(dst, int64(v.IDs[i]))
		dst = binary.AppendUvarint(dst, uint64(len(v.Labels[i])))
		dst = append(dst, v.Labels[i]...)
	}
	for k, i := range order {
		pos[i] = k
	}
	var nbArr [16]int
	nb := nbArr[:0]
	for ka := 0; ka < n; ka++ {
		a := order[ka]
		nb = nb[:0]
		for _, w := range v.Adj[a] {
			if kb := pos[w]; kb > ka {
				nb = append(nb, kb)
			}
		}
		insertionSortInts(nb)
		for _, kb := range nb {
			b := order[kb]
			dst = binary.AppendUvarint(dst, uint64(ka))
			dst = binary.AppendUvarint(dst, uint64(kb))
			dst = binary.AppendUvarint(dst, uint64(v.Ports[[2]int{a, b}]))
			dst = binary.AppendUvarint(dst, uint64(v.Ports[[2]int{b, a}]))
		}
	}
	return dst
}

// minBinKey appends to dst the byte-wise minimum serialization over all
// orderings that put the center first and otherwise permute nodes only
// within refined invariant classes. Minimizing an injective serialization
// over an isomorphism-invariant set of orderings is canonical: isomorphic
// views reach the same minimum, and equal bytes decode to isomorphic views.
func (v *View) minBinKey(dst []byte, sc *keyScratch) []byte {
	classes := v.refinedClassesInt(sc)
	n := v.N()
	sc.pos = mem.Ints(sc.pos, n)
	multi := false
	for _, c := range classes {
		if len(c) > 1 {
			multi = true
			break
		}
	}
	order := mem.Ints(sc.order, n)[:0]
	for _, c := range classes {
		order = append(order, c...)
	}
	sc.order = order
	if !multi {
		// Discrete refinement: the ordering is forced, no search needed.
		return v.appendBinSerialize(dst, order, sc.pos)
	}
	// The search permutes each class segment of order in place; the
	// byte-wise minimum over the whole ordering set is order-independent.
	sc.best = sc.best[:0]
	hasBest := false
	var rec func(ci, lo int)
	rec = func(ci, lo int) {
		if ci == len(classes) {
			sc.cand = v.appendBinSerialize(sc.cand[:0], order, sc.pos)
			if !hasBest || bytes.Compare(sc.cand, sc.best) < 0 {
				sc.best = append(sc.best[:0], sc.cand...)
				hasBest = true
			}
			return
		}
		permuteInPlace(order[lo:lo+len(classes[ci])], func() {
			rec(ci+1, lo+len(classes[ci]))
		})
	}
	rec(0, 0)
	return append(dst, sc.best...)
}

// permuteInPlace runs fn under every permutation of s, restoring the
// original order before returning.
func permuteInPlace(s []int, fn func()) {
	var rec func(i int)
	rec = func(i int) {
		if i == len(s) {
			fn()
			return
		}
		for j := i; j < len(s); j++ {
			s[i], s[j] = s[j], s[i]
			rec(i + 1)
			s[i], s[j] = s[j], s[i]
		}
	}
	rec(0)
}

// refinedClassesInt partitions the nodes into refined invariant classes:
// nodes start colored by the rank of their invariant tuple (distance,
// label, degree, identifier) and are iteratively refined by the multiset of
// (port out, port back, neighbor color) arms, all over int arrays. The
// resulting partition is isomorphism-invariant, as is the class order (by
// color rank, center always first on its own), which is all minBinKey needs
// for canonicity. All working storage comes from the scratch; the returned
// class slices alias sc.classNodes and are valid only until the scratch is
// recycled.
func (v *View) refinedClassesInt(sc *keyScratch) [][]int {
	n := v.N()
	ord := mem.Ints(sc.ord, n)
	for i := range ord {
		ord[i] = i
	}
	sc.ord = ord
	initCmp := func(a, b int) int {
		if v.Dist[a] != v.Dist[b] {
			if v.Dist[a] < v.Dist[b] {
				return -1
			}
			return 1
		}
		if c := strings.Compare(v.Labels[a], v.Labels[b]); c != 0 {
			return c
		}
		if da, db := len(v.Adj[a]), len(v.Adj[b]); da != db {
			if da < db {
				return -1
			}
			return 1
		}
		switch {
		case v.IDs[a] < v.IDs[b]:
			return -1
		case v.IDs[a] > v.IDs[b]:
			return 1
		}
		return 0
	}
	insertionSortCmp(ord, initCmp)
	color := mem.Ints(sc.color, n)
	sc.color = color
	color[ord[0]] = 0
	colors := 1
	for k := 1; k < n; k++ {
		if initCmp(ord[k-1], ord[k]) != 0 {
			colors++
		}
		color[ord[k]] = colors - 1
	}

	if colors < n {
		// Flat arm storage: armStart[i]..armStart[i+1] are node i's arms.
		// Ports never change across rounds, so they are gathered once.
		armStart := mem.Ints(sc.armStart, n+1)
		sc.armStart = armStart
		armStart[0] = 0
		for i := 0; i < n; i++ {
			armStart[i+1] = armStart[i] + len(v.Adj[i])
		}
		m := armStart[n]
		armNbr := mem.Ints(sc.armNbr, m)
		sc.armNbr = armNbr
		if cap(sc.armPorts) < m {
			sc.armPorts = make([][2]int, m)
		}
		armPorts := sc.armPorts[:m]
		if cap(sc.arms) < m {
			sc.arms = make([][3]int, m)
		}
		arms := sc.arms[:m]
		for i := 0; i < n; i++ {
			for k, w := range v.Adj[i] {
				j := armStart[i] + k
				armNbr[j] = w
				armPorts[j] = [2]int{v.Ports[[2]int{i, w}], v.Ports[[2]int{w, i}]}
			}
		}
		next := mem.Ints(sc.next, n)
		sc.next = next
		armCmp := func(a, b int) int {
			if color[a] != color[b] {
				if color[a] < color[b] {
					return -1
				}
				return 1
			}
			// Equal colors imply equal degrees (degree is part of the
			// round-0 tuple), so the arm segments have equal length.
			sa := arms[armStart[a]:armStart[a+1]]
			sb := arms[armStart[b]:armStart[b+1]]
			for k := range sa {
				for c := 0; c < 3; c++ {
					if sa[k][c] != sb[k][c] {
						if sa[k][c] < sb[k][c] {
							return -1
						}
						return 1
					}
				}
			}
			return 0
		}
		for round := 0; round < n && colors < n; round++ {
			// Re-gather arms from the pristine port table each round:
			// sortArms permutes the segment, so ports and neighbor colors
			// must be re-paired before refilling.
			for j := 0; j < m; j++ {
				arms[j] = [3]int{armPorts[j][0], armPorts[j][1], color[armNbr[j]]}
			}
			for i := 0; i < n; i++ {
				sortArms(arms[armStart[i]:armStart[i+1]])
			}
			insertionSortCmp(ord, armCmp)
			nc := 1
			next[ord[0]] = 0
			for k := 1; k < n; k++ {
				if armCmp(ord[k-1], ord[k]) != 0 {
					nc++
				}
				next[ord[k]] = nc - 1
			}
			same := true
			for i := 0; i < n; i++ {
				if next[i] != color[i] {
					same = false
					break
				}
			}
			if same {
				break
			}
			copy(color, next)
			colors = nc
		}
	}

	// Center first on its own, then non-center nodes grouped by final color
	// in increasing order, increasing node index within a class.
	nodes := mem.Ints(sc.classNodes, n)
	sc.classNodes = nodes
	nodes[0] = Center
	rest := nodes[1:1]
	for i := 1; i < n; i++ {
		rest = append(rest, i)
	}
	slices.SortFunc(rest, func(a, b int) int {
		if color[a] != color[b] {
			return color[a] - color[b]
		}
		return a - b
	})
	classes := append(sc.classes[:0], nodes[0:1:1])
	for lo := 0; lo < len(rest); {
		hi := lo + 1
		for hi < len(rest) && color[rest[hi]] == color[rest[lo]] {
			hi++
		}
		classes = append(classes, rest[lo:hi:hi])
		lo = hi
	}
	sc.classes = classes
	return classes
}

// insertionSortCmp sorts s by the three-way comparator; views are tiny, so
// the quadratic sort beats the sort package's interface machinery and
// allocates nothing.
func insertionSortCmp(s []int, cmp func(a, b int) int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && cmp(s[j], s[j-1]) < 0; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func sortArms(s [][3]int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && armLess(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func armLess(a, b [3]int) bool {
	for c := 0; c < 3; c++ {
		if a[c] != b[c] {
			return a[c] < b[c]
		}
	}
	return false
}
