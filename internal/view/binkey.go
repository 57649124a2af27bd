package view

import (
	"encoding/binary"

	"hidinglcp/internal/mem"
)

// keyInline is the node count up to which the canonical-key computation
// keeps its buffers in fixed arrays on the stack; a larger view grows them
// on the heap.
const keyInline = 32

// BinKey returns the canonical key of the view: two views have the same
// key iff they are equal as views (see Key). The encoding is an
// append-to-[]byte varint serialization — no fmt, no string joins — under
// the view's port order: a breadth-first search from the center that
// visits each node's unseen neighbors in the order of their ports at that
// node.
//
// The key relies on two properties of the view: the port rows hold each
// visible edge exactly once at each of its ends, so the ports at each node
// are distinct, and every node is reachable from the center through
// visible edges. Then an isomorphism, which fixes the center and preserves ports,
// maps the port order of one view onto the port order of the other, so
// isomorphic views get equal keys. Conversely the serialization determines
// the ordered view, so equal keys mean isomorphic views. Extract and
// Template (through which internal/sim builds its views too) and
// internal/sanitize's relabelView guarantee both properties; nothing checks
// them at run time.
//
// The key is computed once and cached, and the returned slice is shared;
// the caller must not modify it. A caller that keys many views of one
// template into a reused buffer uses the template's Skeleton instead.
func (v *View) BinKey() []byte {
	v.cacheMu.Lock()
	k := v.cachedBin
	if k == nil {
		k = v.appendKey(nil, nil, nil)
		v.cachedBin = k
	}
	v.cacheMu.Unlock()
	return k
}

// Skeleton is a template's canonical key with the labels left out. The
// canonical node order is the port order, which labels do not affect, so
// the key of any view instantiated from the template is the skeleton with
// each canonical position's label spliced in at a fixed offset. A Skeleton
// reuses its buffers across SkeletonInto calls; the zero value is ready to
// use. Not safe for concurrent use.
type Skeleton struct {
	key   []byte // the key's bytes, every label field left out
	at    []int  // at[k]: offset in key of canonical position k's label field
	hosts []int  // hosts[k]: host node at canonical position k
}

// SkeletonInto writes the template's skeleton into s, reusing s's buffers:
// apart from growing them, the call allocates nothing.
func (t *Template) SkeletonInto(s *Skeleton) {
	v := View{Radius: t.radius, Dist: t.dist(), Ports: &t.ports, IDs: t.ids, NBound: t.nBound}
	s.at, s.hosts = s.at[:0], s.hosts[:0]
	s.key = v.appendKey(s.key[:0], s, t.hosts)
}

// appendKey appends v's canonical key to dst, or with a non-nil skel its
// skeleton: the label fields left out, their offsets appended to skel.at and
// the host node hosts[i] of each canonical position to skel.hosts. The
// order, its inverse and the neighbor buffers live in this frame's arrays
// up to keyInline nodes; keeping them out of BinKey's frame keeps its
// cached path short.
//
//go:noinline
func (v *View) appendKey(dst []byte, skel *Skeleton, hosts []int) []byte {
	var orderBuf, posBuf, nbBuf [keyInline]int
	n := v.N()
	pos := mem.Ints(posBuf[:], n)
	order := v.portOrder(mem.Ints(orderBuf[:], n), pos)
	if skel != nil {
		for _, i := range order {
			skel.hosts = append(skel.hosts, hosts[i])
		}
	}
	return v.appendBinSerialize(dst, order, pos, nbBuf[:0], skel)
}

// AppendKey appends to dst the canonical key of the skeleton's template
// instantiated under labels, which covers the host graph as in
// Template.Instantiate, and returns the extended slice. The bytes equal
// that view's BinKey.
func (s *Skeleton) AppendKey(dst []byte, labels []string) []byte {
	prev := 0
	for k, off := range s.at {
		l := labels[s.hosts[k]]
		dst = append(dst, s.key[prev:off]...)
		dst = binary.AppendUvarint(dst, uint64(len(l)))
		dst = append(dst, l...)
		prev = off
	}
	return append(dst, s.key[prev:]...)
}

// portOrder writes the view's nodes in port order into order and returns
// it, and writes its inverse into pos; both must have length v.N(). The
// order starts with the center and is walked as a breadth-first queue: each
// dequeued node appends its not yet ordered neighbors in the order of its
// port row.
func (v *View) portOrder(order, pos []int) []int {
	for i := range pos {
		pos[i] = -1
	}
	order = order[:1]
	order[0], pos[Center] = Center, 0
	for k := 0; k < len(order); k++ {
		for _, w := range v.Ports.Rows[order[k]] {
			if w >= 0 && pos[w] < 0 {
				pos[w] = len(order)
				order = append(order, w)
			}
		}
	}
	return order
}

// appendBinSerialize renders the view under the node order order, whose
// inverse is pos, into dst, using nb as the buffer for one node's ports to
// later positions: a varint header (radius, n, NBound), per node (dist, id,
// length-prefixed label), then every visible edge as (ka, kb, port a→b,
// port b→a) for positions ka < kb in increasing (ka, kb) order. Every field
// is self-delimiting, so the encoding determines the ordered view — equal
// bytes mean equal views under the chosen orderings.
// With a non-nil skel, the label fields are left out (v.Labels is not read)
// and their offsets in dst are appended to skel.at instead.
func (v *View) appendBinSerialize(dst []byte, order, pos, nb []int, skel *Skeleton) []byte {
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
		if skel != nil {
			skel.at = append(skel.at, len(dst))
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(len(v.Labels[i])))
		dst = append(dst, v.Labels[i]...)
	}
	for ka := 0; ka < n; ka++ {
		// nb collects the ports (0-based) at a = order[ka] that lead to
		// later positions, kept sorted by the position they lead to.
		a := order[ka]
		row := v.Ports.Rows[a]
		nb = nb[:0]
		for p0, w := range row {
			if w < 0 || pos[w] <= ka {
				continue
			}
			nb = append(nb, p0)
			for j := len(nb) - 1; j > 0 && pos[row[nb[j-1]]] > pos[w]; j-- {
				nb[j-1], nb[j] = nb[j], nb[j-1]
			}
		}
		for _, p0 := range nb {
			b := row[p0]
			back, _ := v.Port(b, a)
			dst = binary.AppendUvarint(dst, uint64(ka))
			dst = binary.AppendUvarint(dst, uint64(pos[b]))
			dst = binary.AppendUvarint(dst, uint64(p0+1))
			dst = binary.AppendUvarint(dst, uint64(back))
		}
	}
	return dst
}
