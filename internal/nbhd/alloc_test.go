//go:build !race

package nbhd

import (
	"testing"

	"hidinglcp/internal/core"
	"hidinglcp/internal/decoders"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/view"
)

// TestPairSetSteadyStateAllocs pins the CSR edge accumulator at zero
// allocations once the membership table has grown to the working-set size —
// the property that lets the builders absorb millions of duplicate
// compatibility edges without touching the heap. The race detector
// instruments allocations, so this runs only in plain builds.
func TestPairSetSteadyStateAllocs(t *testing.T) {
	var s pairSet
	for a := view.Handle(0); a < 40; a++ {
		for b := a + 1; b < 40; b++ {
			s.add(packPair(a, b))
		}
	}
	want := s.len()
	if n := testing.AllocsPerRun(100, func() {
		for a := view.Handle(0); a < 40; a++ {
			for b := a + 1; b < 40; b++ {
				s.add(packPair(a, b))
			}
		}
	}); n != 0 {
		t.Errorf("re-adding present pairs allocates %.1f objects per sweep, want 0", n)
	}
	if s.len() != want {
		t.Errorf("pair count changed across duplicate sweeps: %d -> %d", want, s.len())
	}
}

// TestAbsorbShapeMemoAllocs pins the builders' steady state at zero
// allocations: once an instance's skeletons are written and its views'
// classes are interned and decided, absorbing another labeling whose views
// all hit the interner must not touch the heap.
func TestAbsorbShapeMemoAllocs(t *testing.T) {
	s := decoders.DegreeOne()
	in := view.NewInterner()
	b := newBuilder(s.Decoder, core.NewMemoDecoder(s.Decoder, in), in, "test")
	inst := core.NewAnonymousInstance(graph.Star(4))
	a := decoders.DegOneAlphabet()
	first := core.MustNewLabeled(inst, []string{a[0], a[1], a[2], a[3]})
	second := core.MustNewLabeled(inst, []string{a[1], a[0], a[3], a[2]})
	// The first pass writes the skeletons and interns both labelings'
	// classes.
	b.absorb(first)
	b.absorb(second)
	hits := b.nLookupHits
	if n := testing.AllocsPerRun(100, func() {
		b.absorb(second)
		b.absorb(first)
	}); n != 0 {
		t.Errorf("absorbing labelings with interned classes allocates %.1f objects per pair, want 0", n)
	}
	if want := hits + 101*2*int64(inst.G.N()); b.nLookupHits != want {
		t.Errorf("interner hits = %d, want %d (every view of every measured absorb)", b.nLookupHits, want)
	}
	if b.nTemplatesBuilt != 1 {
		t.Errorf("templates built %d times, want once for the one instance", b.nTemplatesBuilt)
	}
}
