// Fixture for the poolescape analyzer: every Get on a recycler (mem.Pool,
// mem.FreeList, sync.Pool) is reported at the Get, whether the borrowed
// object escapes (the bad* functions) or is only copied or used locally
// (the good* functions, which a taint analysis would let pass).
package poolescape

import (
	"mem"
	"sync"
)

type scratch struct {
	buf  []byte
	ints []int
}

var pool mem.Pool[scratch]

var fl mem.FreeList[scratch]

// badReturn returns the pooled object itself.
func badReturn() *scratch {
	sc := pool.Get() // want "Get on recycler mem.Pool"
	defer pool.Put(sc)
	return sc
}

// badReturnField returns a buffer owned by the pooled object.
func badReturnField() []byte {
	sc := pool.Get() // want "Get on recycler mem.Pool"
	defer pool.Put(sc)
	return sc.buf
}

// badFreeList leaks from the single-owner free list the same way.
func badFreeList() *scratch {
	sc := fl.Get() // want "Get on recycler mem.FreeList"
	defer fl.Put(sc)
	return sc
}

var leaked []byte

// badGlobalStore parks a pooled buffer in package-level state.
func badGlobalStore() {
	sc := pool.Get() // want "Get on recycler mem.Pool"
	defer pool.Put(sc)
	leaked = sc.buf
}

var leakedVar = func() []byte { return nil }()

// badGlobalIdent assigns the pooled buffer to a package-level variable
// directly.
func badGlobalIdent() {
	sc := pool.Get() // want "Get on recycler mem.Pool"
	defer pool.Put(sc)
	leakedVar = sc.buf
}

type holder struct{ b []byte }

var globalHolder holder

// badGlobalFieldStore stores through a field path rooted at a package-level
// variable.
func badGlobalFieldStore() {
	sc := pool.Get() // want "Get on recycler mem.Pool"
	defer pool.Put(sc)
	globalHolder.b = sc.buf
}

// badParamStore hands the pooled buffer to caller-visible state.
func badParamStore(h *holder) {
	sc := pool.Get() // want "Get on recycler mem.Pool"
	defer pool.Put(sc)
	h.b = sc.buf
}

// badRecvStore is the method-receiver variant.
func (h *holder) badRecvStore() {
	sc := pool.Get() // want "Get on recycler mem.Pool"
	defer pool.Put(sc)
	h.b = sc.ints2()
	h.b = sc.buf
}

func (s *scratch) ints2() []byte { return nil }

// badSyncPool leaks a sync.Pool object through a type assertion.
func badSyncPool(p *sync.Pool) []byte {
	v := p.Get() // want "Get on recycler sync.Pool"
	b := v.(*[]byte)
	p.Put(v)
	return *b
}

// badGrowingAppend aliases the pooled backing array: append without fresh
// backing may return the same array.
func badGrowingAppend() []byte {
	sc := pool.Get() // want "Get on recycler mem.Pool"
	defer pool.Put(sc)
	out := append(sc.buf, 1, 2)
	return out
}

// badSlice returns a subslice of the pooled buffer.
func badSlice() []byte {
	sc := pool.Get() // want "Get on recycler mem.Pool"
	defer pool.Put(sc)
	return sc.buf[:2]
}

// goodCopyAppend makes the canonical fresh-backing copy.
func goodCopyAppend() []byte {
	sc := pool.Get() // want "Get on recycler mem.Pool"
	defer pool.Put(sc)
	return append([]byte(nil), sc.buf...)
}

// goodEmptyLitAppend is the composite-literal spelling of the same copy.
func goodEmptyLitAppend() []int {
	sc := pool.Get() // want "Get on recycler mem.Pool"
	defer pool.Put(sc)
	return append([]int{}, sc.ints...)
}

// goodString copies via a string conversion.
func goodString() string {
	sc := pool.Get() // want "Get on recycler mem.Pool"
	defer pool.Put(sc)
	return string(sc.buf)
}

// goodMakeCopy copies into a separately allocated buffer.
func goodMakeCopy() []int {
	sc := pool.Get() // want "Get on recycler mem.Pool"
	defer pool.Put(sc)
	out := make([]int, len(sc.ints))
	copy(out, sc.ints)
	return out
}

// goodScratchStore writes into the pooled object itself — the normal
// scratch discipline.
func goodScratchStore() {
	sc := pool.Get() // want "Get on recycler mem.Pool"
	sc.buf = append(sc.buf[:0], 'a')
	pool.Put(sc)
}

// goodLocalUse reads the pooled object without leaking it.
func goodLocalUse() int {
	sc := pool.Get() // want "Get on recycler mem.Pool"
	defer pool.Put(sc)
	return len(sc.buf)
}

// goodReassign rebinds the variable to fresh backing before returning it.
func goodReassign() []byte {
	sc := pool.Get() // want "Get on recycler mem.Pool"
	b := sc.buf
	b = make([]byte, 4)
	pool.Put(sc)
	return b
}
