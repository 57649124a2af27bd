// Package mem provides the allocation-discipline building blocks of the hot
// enumeration paths: chunked slab arenas for objects that live exactly as
// long as one build and a capacity-reusing scratch helper. There is no
// recycling pool: per-call scratch lives on the caller's stack (see
// view.BinKey and graph.Ports.AppendForm), and the poolescape analyzer
// (cmd/lcplint) reports any Get on a recycler.
//
// Escape rules (safe by construction):
//
//   - Slab/SliceSlab memory is NEVER reclaimed individually; it is released
//     only when the whole arena becomes unreachable. Allocate from a slab
//     only objects whose lifetime is tied to the arena owner (e.g. interned
//     view representatives owned by a builder). Pointers into a slab stay
//     valid for the arena's lifetime, so handing them out is safe.
//   - The scratch helper Ints returns a slice with undefined contents that
//     aliases the input's backing array; callers own the result exactly as
//     they owned the input.
package mem

// slabChunkMin is the element count of the first chunk of a Slab or
// SliceSlab; subsequent chunks double up to slabChunkMax. Small first chunks
// keep one-shot arenas cheap, geometric growth keeps the per-element
// amortized cost at O(1) allocations per chunk.
const (
	slabChunkMin = 64
	slabChunkMax = 16384
)

// Slab is a chunked bump allocator for values of type T. Alloc returns
// pointers into fixed-position chunks, so allocated values never move and
// pointers remain valid for the slab's lifetime. The zero value is ready to
// use. A Slab is not safe for concurrent use; give each goroutine its own.
type Slab[T any] struct {
	chunks [][]T
}

// Alloc returns a pointer to a new zero value of T from the slab.
func (s *Slab[T]) Alloc() *T {
	if len(s.chunks) == 0 || len(s.chunks[len(s.chunks)-1]) == cap(s.chunks[len(s.chunks)-1]) {
		size := slabChunkMin << len(s.chunks)
		if size > slabChunkMax {
			size = slabChunkMax
		}
		s.chunks = append(s.chunks, make([]T, 0, size))
	}
	c := &s.chunks[len(s.chunks)-1]
	*c = (*c)[:len(*c)+1]
	return &(*c)[len(*c)-1]
}

// SliceSlab carves variable-length []T slices out of shared chunk backings.
// Returned slices have full length n, undefined contents, capped capacity
// (appends never bleed into a neighbor), and never move. The zero value is
// ready to use; not safe for concurrent use.
type SliceSlab[T any] struct {
	cur    []T
	nextSz int
}

// Make returns a fresh slice of length and capacity n from the slab.
func (s *SliceSlab[T]) Make(n int) []T {
	if n == 0 {
		return nil
	}
	if cap(s.cur)-len(s.cur) < n {
		size := s.nextSz
		if size < slabChunkMin {
			size = slabChunkMin
		}
		if size < n {
			size = n
		}
		s.cur = make([]T, 0, size)
		if s.nextSz = size * 2; s.nextSz > slabChunkMax {
			s.nextSz = slabChunkMax
		}
	}
	off := len(s.cur)
	s.cur = s.cur[:off+n]
	return s.cur[off : off+n : off+n]
}

// Ints returns a slice of length n with undefined contents, reusing buf's
// backing array when it is large enough. The idiomatic call site is
// s.buf = mem.Ints(s.buf, n).
func Ints(buf []int, n int) []int {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]int, n)
}
