// Fixture for the poolescape analyzer: every Get on a sync.Pool is
// reported at the Get, whether the borrowed object escapes (the bad*
// functions) or is only copied or used locally (the good* functions, which
// a taint analysis would let pass), and through a value or a pointer.
package poolescape

import "sync"

var pool sync.Pool

var leaked []byte

type holder struct{ b []byte }

// badReturn returns the pooled object itself.
func badReturn() any {
	v := pool.Get() // want "Get on sync.Pool"
	defer pool.Put(v)
	return v
}

// badPointerPool leaks through a type assertion on a *sync.Pool.
func badPointerPool(p *sync.Pool) []byte {
	v := p.Get() // want "Get on sync.Pool"
	b := v.(*[]byte)
	p.Put(v)
	return *b
}

// badGlobalStore parks a pooled buffer in package-level state.
func badGlobalStore() {
	b := pool.Get().(*[]byte) // want "Get on sync.Pool"
	defer pool.Put(b)
	leaked = *b
}

// badRecvStore hands the pooled buffer to caller-visible state.
func (h *holder) badRecvStore(p *sync.Pool) {
	b := p.Get().(*[]byte) // want "Get on sync.Pool"
	defer p.Put(b)
	h.b = (*b)[:2]
}

// goodCopy makes the canonical fresh-backing copy.
func goodCopy() []byte {
	b := pool.Get().(*[]byte) // want "Get on sync.Pool"
	defer pool.Put(b)
	return append([]byte(nil), *b...)
}

// goodLocalUse reads the pooled object without leaking it.
func goodLocalUse(p *sync.Pool) int {
	b := p.Get().(*[]byte) // want "Get on sync.Pool"
	defer p.Put(b)
	return len(*b)
}

// Pool is a local type that shares sync.Pool's names but recycles nothing.
type Pool struct{ n int }

// Get is not a recycler's Get.
func (p *Pool) Get() int { return p.n }

// localPool is not reported: the rule names sync.Pool only.
func localPool(p *Pool) int {
	var q Pool
	return p.Get() + q.Get()
}
