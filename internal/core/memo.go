package core

import (
	"math/bits"
	"sync/atomic"

	"hidinglcp/internal/view"
)

const (
	memoFirstBits = 10
	memoFirstSize = 1 << memoFirstBits
	memoMaxChunks = 14 // 1024·(2^14−1) handles, past the interner's 2^23
)

// memoChunk holds the verdicts of consecutive handles: 0 unknown,
// 1 reject, 2 accept. Chunk c holds memoFirstSize<<c of them.
type memoChunk []atomic.Uint32

// memoLocate returns the chunk and offset of handle h's verdict.
func memoLocate(h view.Handle) (c, off uint32) {
	x := uint32(h) + memoFirstSize
	c = uint32(bits.Len32(x)) - memoFirstBits - 1
	return c, x - memoFirstSize<<c
}

// MemoDecoder wraps a Decoder with a verdict memo keyed on interned view
// handles, so a view class enumerated many times — by one worker or by
// different shard workers sharing the memo — pays for exactly one inner
// Decide call. The wrapper is observationally pure: decoders are pure
// functions of the view and constant on canonical-key classes (the
// neighborhood-graph construction has always deduplicated Decide calls by
// canonical key), so replaying a cached verdict is indistinguishable from
// re-deciding.
//
// MemoDecoder is safe for concurrent use and takes no lock: verdicts live
// in lazily allocated, handle-indexed chunks of atomic words, so a hit reads
// its verdict with two atomic loads. Two goroutines that miss on one class
// at once may both decide it, and store the same verdict.
type MemoDecoder struct {
	inner  Decoder
	in     *view.Interner
	chunks [memoMaxChunks]atomic.Pointer[memoChunk]
	calls  atomic.Uint64
	misses atomic.Uint64
}

var _ Decoder = (*MemoDecoder)(nil)

// NewMemoDecoder wraps d with a fresh memo over the given interner (a new
// interner is created when in is nil). Callers that already intern views —
// the neighborhood-graph builders — share one interner between the memo and
// their dedupe tables and use DecideInterned to skip the second key lookup.
func NewMemoDecoder(d Decoder, in *view.Interner) *MemoDecoder {
	if in == nil {
		in = view.NewInterner()
	}
	return &MemoDecoder{inner: d, in: in}
}

// Rounds implements Decoder.
func (m *MemoDecoder) Rounds() int { return m.inner.Rounds() }

// Anonymous implements Decoder.
func (m *MemoDecoder) Anonymous() bool { return m.inner.Anonymous() }

// Decide implements Decoder. The view is interned (canonicalized) first;
// per the Decoder contract it must already be anonymized iff the inner
// decoder is anonymous. Like any Decoder it does not retain mu: a view of
// a new class is interned as a clone, so a scratch view refilled after
// Decide returns (Run's, the sweep's) never becomes a class representative.
func (m *MemoDecoder) Decide(mu *view.View) bool {
	k := mu.BinKey()
	h, ok := m.in.LookupKey(k)
	if !ok {
		h = m.in.InternKey(k, mu.Clone())
	}
	return m.DecideInterned(h, mu)
}

// DecideInterned is Decide for callers that have already interned mu as h
// on the memo's interner; it retains nothing, so the representative is the
// view the caller interned (the nbhd builders intern arena views).
func (m *MemoDecoder) DecideInterned(h view.Handle, mu *view.View) bool {
	m.calls.Add(1)
	c, off := memoLocate(h)
	v := &m.chunk(c)[off]
	if out := v.Load(); out != 0 {
		return out == 2
	}
	m.misses.Add(1)
	out := m.inner.Decide(mu)
	if out {
		v.Store(2)
	} else {
		v.Store(1)
	}
	return out
}

// chunk returns verdict chunk c, allocating it on first use. Of two
// goroutines that allocate it at once, the one whose swap fails adopts the
// winner's chunk.
func (m *MemoDecoder) chunk(c uint32) memoChunk {
	if ch := m.chunks[c].Load(); ch != nil {
		return *ch
	}
	ch := make(memoChunk, memoFirstSize<<c)
	m.chunks[c].CompareAndSwap(nil, &ch)
	return *m.chunks[c].Load()
}

// Stats returns the number of Decide calls served and the number of memo
// misses (= inner decoder invocations).
func (m *MemoDecoder) Stats() (calls, misses uint64) {
	return m.calls.Load(), m.misses.Load()
}
