package core

import (
	"sync"
	"sync/atomic"

	"hidinglcp/internal/view"
)

const memoStripes = 64

type memoStripe struct {
	mu sync.RWMutex
	m  map[view.Handle]bool
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
// MemoDecoder is safe for concurrent use; the memo is striped by handle and
// read-mostly.
type MemoDecoder struct {
	inner   Decoder
	in      *view.Interner
	stripes [memoStripes]memoStripe
	calls   atomic.Uint64
	misses  atomic.Uint64
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
	m := &MemoDecoder{inner: d, in: in}
	for i := range m.stripes {
		m.stripes[i].m = make(map[view.Handle]bool)
	}
	return m
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
	s := &m.stripes[h%memoStripes]
	s.mu.RLock()
	out, ok := s.m[h]
	s.mu.RUnlock()
	if ok {
		return out
	}
	m.misses.Add(1)
	out = m.inner.Decide(mu)
	s.mu.Lock()
	s.m[h] = out
	s.mu.Unlock()
	return out
}

// Stats returns the number of Decide calls served and the number of memo
// misses (= inner decoder invocations).
func (m *MemoDecoder) Stats() (calls, misses uint64) {
	return m.calls.Load(), m.misses.Load()
}
