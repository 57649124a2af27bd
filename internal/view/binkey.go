package view

import (
	"encoding/binary"
	"slices"

	"hidinglcp/internal/mem"
)

// keyScratch holds every per-call buffer of the canonical-key computation:
// the node order, its inverse, and the neighbor buffers of the order and of
// the serialization. The buffers are recycled through keyScratchPool;
// nothing reachable from a scratch may be returned to a caller — the final
// key is always appended to the caller's buffer (see the escape rules of
// internal/mem).
type keyScratch struct {
	order, pos []int    // canonical node order and its inverse
	arms       [][2]int // (port, neighbor) of one node, sorted by port
	nb         []int    // one node's later positions, for serialization
	noLabels   []string // all empty: a template's views without labels
}

var keyScratchPool mem.Pool[keyScratch]

// BinKey returns the canonical key of the view: two views have the same
// key iff they are equal as views (see Key). The encoding is an
// append-to-[]byte varint serialization — no fmt, no string joins — under
// the view's port order: a breadth-first search from the center that
// visits each node's unseen neighbors in the order of their ports at that
// node.
//
// The key relies on two properties of the view: the ports at each node are
// distinct, and every node is reachable from the center through visible
// edges. Then an isomorphism, which fixes the center and preserves ports,
// maps the port order of one view onto the port order of the other, so
// isomorphic views get equal keys. Conversely the serialization determines
// the ordered view, so equal keys mean isomorphic views. Extract and
// Template, internal/sim's assemble and internal/sanitize's relabelView
// guarantee both properties; nothing checks them at run time.
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
	v.portOrder(sc)
	return v.appendBinSerialize(dst, sc)
}

// AppendShape appends the template's shape to dst and the host node at
// each of its canonical positions to hosts, and returns both. The shape is
// the serialization of the template's views with every label empty, under
// their port order. That order does not depend on labels, so a labeled
// view's key is its template's shape with the labels filled in at the same
// positions: two labeled views are in the same class exactly when their
// templates have equal shapes and they carry the same labels at the same
// canonical positions, which lets a caller memoize canonical keys by
// (shape, labels in canonical order) across instances. Apart from growing
// dst and hosts, the call allocates nothing.
func (t *Template) AppendShape(dst []byte, hosts []int) (shape []byte, canonHosts []int) {
	sc := keyScratchPool.Get()
	defer keyScratchPool.Put(sc)
	n := len(t.hosts)
	if cap(sc.noLabels) < n {
		sc.noLabels = make([]string, n)
	}
	v := View{Radius: t.radius, Adj: t.adj, Dist: t.dist, Ports: t.ports, IDs: t.ids, Labels: sc.noLabels[:n], NBound: t.nBound}
	v.portOrder(sc)
	dst = v.appendBinSerialize(dst, sc)
	for _, i := range sc.order {
		hosts = append(hosts, t.hosts[i])
	}
	return dst, hosts
}

// portOrder fills sc.order with the view's nodes in port order and sc.pos
// with its inverse. The order starts with the center and is walked as a
// breadth-first queue: each dequeued node appends its not yet ordered
// neighbors, sorted by their port at that node.
func (v *View) portOrder(sc *keyScratch) {
	n := v.N()
	pos := mem.Ints(sc.pos, n)
	for i := range pos {
		pos[i] = -1
	}
	order := mem.Ints(sc.order, n)[:1]
	order[0], pos[Center] = Center, 0
	arms := sc.arms
	for k := 0; k < len(order); k++ {
		a := order[k]
		arms = arms[:0]
		for _, w := range v.Adj[a] {
			if pos[w] < 0 {
				arms = append(arms, [2]int{v.Ports[[2]int{a, w}], w})
			}
		}
		slices.SortFunc(arms, func(x, y [2]int) int { return x[0] - y[0] })
		for _, arm := range arms {
			pos[arm[1]] = len(order)
			order = append(order, arm[1])
		}
	}
	sc.order, sc.pos, sc.arms = order, pos, arms
}

// appendBinSerialize renders the view under the node order sc.order, whose
// inverse is sc.pos, into dst: a varint header (radius, n, NBound), per
// node (dist, id, length-prefixed label), then every visible edge as (ka,
// kb, port a→b, port b→a) for positions ka < kb in increasing (ka, kb)
// order. Every field is self-delimiting, so the encoding determines the
// ordered view — equal bytes mean equal views under the chosen orderings.
func (v *View) appendBinSerialize(dst []byte, sc *keyScratch) []byte {
	n := v.N()
	order, pos := sc.order, sc.pos
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
	nb := sc.nb
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
	sc.nb = nb
	return dst
}
