package view

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// Handle is a dense identifier for one canonical view class inside an
// Interner: handles are assigned 0, 1, 2, … in first-intern order, so they
// index plain slices where the string-keyed builders used map[string]
// tables. Handle values depend on intern order and are NOT canonical across
// runs or workers — never order output by handle; sort by BinKey instead.
type Handle uint32

const (
	internStripes   = 64
	internChunkBits = 10
	internChunkSize = 1 << internChunkBits
	internChunkMask = internChunkSize - 1
	internMaxChunks = 1 << 13 // 8M distinct views per interner
)

type internChunk [internChunkSize]*View

type internStripe struct {
	mu sync.RWMutex
	m  map[string]Handle
}

// Interner deduplicates views by canonical key (BinKey) and maps each
// distinct view class to a dense Handle. It is safe for concurrent use: the
// key→handle table is striped by key hash (read-mostly RWMutex fast path),
// and handle assignment is serialized behind one small critical section.
// The first view interned for a class is retained as the class
// representative.
type Interner struct {
	stripes [internStripes]internStripe

	// mu serializes handle assignment; n is the number of assigned handles.
	// Representatives live in fixed-position chunks so ViewOf can read them
	// without holding mu: the chunk pointer is atomic, and the entry write
	// happens-before the stripe-map publish that makes its handle visible.
	mu     sync.Mutex
	n      atomic.Uint32
	chunks [internMaxChunks]atomic.Pointer[internChunk]

	// hits counts InternKey calls that found an existing class; misses counts
	// first-sight interns. Kept as plain relaxed atomics so instrumented and
	// uninstrumented builds take the same code path.
	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	it := &Interner{}
	for i := range it.stripes {
		it.stripes[i].m = make(map[string]Handle)
	}
	return it
}

// InternKey returns the handle of the view class with canonical key k,
// assigning the next dense handle and retaining mu, whose key k must be, as
// the representative on first sight. The caller holds k already (mu's
// BinKey, or a Skeleton's AppendKey into its own buffer), so mu is not
// canonicalized again. k is only read: on first sight the interner keeps a
// private copy as mu's cached key and as the table entry, so the caller may
// reuse k at once.
func (it *Interner) InternKey(k []byte, mu *View) Handle {
	s := &it.stripes[internHash(k)&(internStripes-1)]
	s.mu.RLock()
	h, ok := s.m[string(k)] // compiler avoids the []byte→string copy for map reads
	s.mu.RUnlock()
	if ok {
		it.hits.Add(1)
		return h
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if h, ok := s.m[string(k)]; ok {
		it.hits.Add(1)
		return h
	}
	it.misses.Add(1)
	// The representative's cached key doubles as the table key: one copy,
	// never written again (see Key).
	k = mu.cacheKey(k)
	it.mu.Lock()
	h = Handle(it.n.Load())
	c := h >> internChunkBits
	if c >= internMaxChunks {
		it.mu.Unlock()
		panic("view.Interner: too many distinct views")
	}
	ch := it.chunks[c].Load()
	if ch == nil {
		ch = new(internChunk)
		it.chunks[c].Store(ch)
	}
	ch[h&internChunkMask] = mu
	it.n.Store(uint32(h) + 1)
	it.mu.Unlock()
	s.m[unsafe.String(unsafe.SliceData(k), len(k))] = h
	return h
}

// LookupKey returns the handle of the view class with canonical key k
// without interning anything. It does not retain k and allocates nothing.
func (it *Interner) LookupKey(k []byte) (Handle, bool) {
	s := &it.stripes[internHash(k)&(internStripes-1)]
	s.mu.RLock()
	h, ok := s.m[string(k)]
	s.mu.RUnlock()
	return h, ok
}

// Len returns the number of distinct view classes interned so far.
func (it *Interner) Len() int { return int(it.n.Load()) }

// Stats reports how many InternKey calls found an existing class (hits) and
// how many assigned a new handle (misses). Safe to call concurrently with
// InternKey; the two values are read independently and may be one call apart.
func (it *Interner) Stats() (hits, misses uint64) {
	return it.hits.Load(), it.misses.Load()
}

// ViewOf returns the representative view of handle h. h must have been
// returned by InternKey on this interner.
func (it *Interner) ViewOf(h Handle) *View {
	if uint32(h) >= it.n.Load() {
		panic("view.Interner: handle out of range")
	}
	return it.chunks[h>>internChunkBits].Load()[h&internChunkMask]
}

// internHash is FNV-1a over the key bytes, used only to pick a stripe.
func internHash(k []byte) uint32 {
	h := uint32(2166136261)
	for _, b := range k {
		h = (h ^ uint32(b)) * 16777619
	}
	return h
}
