// Package mem is a minimal replica of hidinglcp/internal/mem for analyzer
// fixtures: the poolescape analyzer matches recyclers structurally (a named
// Pool or FreeList type in a package named mem), so the fixture only needs
// the shape, not the implementation.
package mem

// Pool is a typed free list over recycled objects.
type Pool[T any] struct {
	New   func() *T
	Reset func(*T)
}

// Get returns a ready-to-use object.
func (p *Pool[T]) Get() *T {
	if p.New != nil {
		return p.New()
	}
	return new(T)
}

// Put recycles x.
func (p *Pool[T]) Put(x *T) {}

// FreeList is a single-owner typed free list.
type FreeList[T any] struct {
	New   func() *T
	Reset func(*T)

	free []*T
}

// Get returns a ready-to-use object.
func (f *FreeList[T]) Get() *T {
	if n := len(f.free); n > 0 {
		x := f.free[n-1]
		f.free = f.free[:n-1]
		return x
	}
	return new(T)
}

// Put recycles x for a later Get.
func (f *FreeList[T]) Put(x *T) { f.free = append(f.free, x) }
