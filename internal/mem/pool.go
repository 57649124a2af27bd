package mem

import "sync"

// Pool is a typed free list over sync.Pool for scratch objects shared across
// goroutines (e.g. the canonical-key scratch of internal/view). Reset, when
// set, runs on every recycled object before Get returns it, so callers
// always see the declared post-Reset state. Objects put back must not be
// touched again by the caller.
type Pool[T any] struct {
	// New builds a fresh object when the pool is empty; nil means new(T).
	New func() *T
	// Reset restores a recycled object to its ready state before reuse.
	Reset func(*T)

	p sync.Pool
}

// Get returns a ready-to-use object: recycled and Reset, or freshly built.
func (p *Pool[T]) Get() *T {
	if v := p.p.Get(); v != nil {
		x := v.(*T)
		if p.Reset != nil {
			p.Reset(x)
		}
		return x
	}
	if p.New != nil {
		return p.New()
	}
	return new(T)
}

// Put recycles x. The caller must not use x (or any buffer it owns) after
// Put; escape sites are flagged by the poolescape analyzer.
func (p *Pool[T]) Put(x *T) { p.p.Put(x) }
