package view

import (
	"hash/maphash"
	"math/bits"
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
	internFirstBits = 6
	internFirstSize = 1 << internFirstBits
	internMaxViews  = 1 << 23 // 8M distinct views per interner
	internMaxChunks = 18      // 64·(2^18−1) entries, past internMaxViews
	internMinSlots  = 128
)

// internEntry is one class: its representative, the representative's cached
// key (the bytes a probe compares against) and the key's hash (so growth
// reinserts without rehashing).
type internEntry struct {
	rep  *View
	key  string
	hash uint64
}

// internLocate returns the chunk and offset of handle h. Chunk c holds
// internFirstSize<<c entries, so a small interner allocates little and a
// large one needs few chunks.
func internLocate(h Handle) (c, off uint32) {
	x := uint32(h) + internFirstSize
	c = uint32(bits.Len32(x)) - internFirstBits - 1
	return c, x - internFirstSize<<c
}

// internTable is an open-addressed, linearly probed table of atomic slots.
// A slot holds the key hash's top 32 bits (a tag) above handle+1; 0 is
// empty. Slots go from 0 to their final value once and never change, and a
// table is never written again after growth replaces it.
type internTable struct {
	mask  uint64
	slots []atomic.Uint64
}

func newInternTable(size int) *internTable {
	return &internTable{mask: uint64(size - 1), slots: make([]atomic.Uint64, size)}
}

// insert publishes handle h under hash. The caller holds Interner.mu and
// has already written h's entry.
func (t *internTable) insert(hash uint64, h Handle) {
	i := hash & t.mask
	for t.slots[i].Load() != 0 {
		i = (i + 1) & t.mask
	}
	t.slots[i].Store(hash&^0xffffffff | (uint64(h) + 1))
}

// Interner deduplicates views by canonical key (BinKey) and maps each
// distinct view class to a dense Handle. It is safe for concurrent use. A
// probe hashes the key once and walks an open-addressed table with atomic
// loads, comparing bytes only against the entry a matching tag names, so a
// LookupKey hit takes no lock and writes no shared memory. First sights,
// and doubling the table at half load, are serialized behind one mutex.
// The first view interned for a class is retained as the class
// representative.
type Interner struct {
	seed  maphash.Seed
	table atomic.Pointer[internTable]

	// mu serializes handle assignment and table writes; n is the number of
	// assigned handles. Entries live in chunks that never move, so probes
	// and ViewOf read them without holding mu: a chunk and its entry are
	// written before the stores to n and to the slot that make the handle
	// visible, and a reader reaches them only through those loads.
	mu     sync.Mutex
	n      atomic.Uint32
	chunks [internMaxChunks][]internEntry

	// hits counts InternKey calls that found an existing class; misses counts
	// first-sight interns. Kept as plain relaxed atomics so instrumented and
	// uninstrumented builds take the same code path.
	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	it := &Interner{seed: maphash.MakeSeed()}
	it.table.Store(newInternTable(internMinSlots))
	return it
}

// find probes t for key k with hash hash.
func (it *Interner) find(t *internTable, k []byte, hash uint64) (Handle, bool) {
	tag := hash &^ 0xffffffff
	for i := hash & t.mask; ; i = (i + 1) & t.mask {
		w := t.slots[i].Load()
		if w == 0 {
			return 0, false
		}
		if w&^0xffffffff != tag {
			continue
		}
		h := Handle(uint32(w) - 1)
		if it.entry(h).key == string(k) {
			return h, true
		}
	}
}

// InternKey returns the handle of the view class with canonical key k,
// assigning the next dense handle and retaining mu, whose key k must be, as
// the representative on first sight. The caller holds k already (mu's
// BinKey, or a Skeleton's AppendKey into its own buffer), so mu is not
// canonicalized again. k is only read: on first sight the interner keeps a
// private copy as mu's cached key and as the table entry, so the caller may
// reuse k at once.
func (it *Interner) InternKey(k []byte, mu *View) Handle {
	hash := maphash.Bytes(it.seed, k)
	if h, ok := it.find(it.table.Load(), k, hash); ok {
		it.hits.Add(1)
		return h
	}
	it.mu.Lock()
	defer it.mu.Unlock()
	// A probe of a table that growth has since replaced can miss a class
	// interned after the replacement: look again in the current one.
	t := it.table.Load()
	if h, ok := it.find(t, k, hash); ok {
		it.hits.Add(1)
		return h
	}
	it.misses.Add(1)
	h := Handle(it.n.Load())
	if h >= internMaxViews {
		panic("view.Interner: too many distinct views")
	}
	c, off := internLocate(h)
	if off == 0 {
		it.chunks[c] = make([]internEntry, internFirstSize<<c)
	}
	// The representative's cached key doubles as the entry's key: one copy,
	// never written again (see Key).
	k = mu.cacheKey(k)
	it.chunks[c][off] = internEntry{rep: mu, key: unsafe.String(unsafe.SliceData(k), len(k)), hash: hash}
	it.n.Store(uint32(h) + 1)
	if 2*(uint64(h)+1) > uint64(len(t.slots)) {
		t = it.grow(t, h)
	}
	t.insert(hash, h)
	return h
}

// grow publishes a table of twice t's size holding handles [0, n). The
// caller holds mu; t is never written again.
func (it *Interner) grow(t *internTable, n Handle) *internTable {
	nt := newInternTable(2 * len(t.slots))
	for h := Handle(0); h < n; h++ {
		nt.insert(it.entry(h).hash, h)
	}
	it.table.Store(nt)
	return nt
}

// LookupKey returns the handle of the view class with canonical key k
// without interning anything. It does not retain k, allocates nothing and
// takes no lock.
func (it *Interner) LookupKey(k []byte) (Handle, bool) {
	return it.find(it.table.Load(), k, maphash.Bytes(it.seed, k))
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
	return it.entry(h).rep
}

// entry returns handle h's entry; h must be visible to the caller.
func (it *Interner) entry(h Handle) *internEntry {
	c, off := internLocate(h)
	return &it.chunks[c][off]
}
