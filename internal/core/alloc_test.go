//go:build !race

package core

import (
	"math/rand"
	"testing"

	"hidinglcp/internal/graph"
	"hidinglcp/internal/view"
)

// rejectAllDecoder rejects every view: the accepting set stays empty, so a
// strong-soundness sweep never constructs a violation and the steady state
// is pure memo traffic.
type rejectAllDecoder struct{}

func (rejectAllDecoder) Rounds() int            { return 1 }
func (rejectAllDecoder) Anonymous() bool        { return true }
func (rejectAllDecoder) Decide(*view.View) bool { return false }

// TestLabelSweepSteadyStateAllocs pins the memoized soundness sweep at zero
// allocations once every (node, neighborhood-labeling) rank and the language
// verdict are memoized. The race detector instruments allocations, so this
// runs only in plain builds.
func TestLabelSweepSteadyStateAllocs(t *testing.T) {
	inst := NewAnonymousInstance(graph.MustCycle(4))
	alphabet := []string{"0", "1"}
	s, err := newLabelSweep(rejectAllDecoder{}, TwoCol(), inst, alphabet)
	if err != nil {
		t.Fatal(err)
	}
	sweep := func() {
		graph.EnumLabelings(inst.G.N(), len(alphabet), func(idx []int) bool {
			if err := s.check(idx); err != nil {
				t.Fatalf("reject-all sweep found a violation: %v", err)
			}
			return true
		})
	}
	sweep() // fill the rank and language memos
	if n := testing.AllocsPerRun(50, sweep); n > 2 {
		t.Errorf("memoized sweep allocates %.1f objects per 2^4-labeling pass, want <= 2", n)
	}
}

// TestLabelSweepCheckAllocs pins the incremental check itself at zero
// allocations in steady state, over a precomputed labeling sequence: every
// labeling of C5 over three symbols in enumeration order, then the same
// labelings shuffled, so moves between labelings are both adjacent steps
// and non-adjacent jumps (as at shard boundaries). The decoder's verdicts
// vary, so verdicts and the accepting mask change along the way.
func TestLabelSweepCheckAllocs(t *testing.T) {
	inst := NewAnonymousInstance(graph.MustCycle(5))
	alphabet := []string{"0", "1", "x"}
	s, err := newLabelSweep(revealDecoder(), TwoCol(), inst, alphabet)
	if err != nil {
		t.Fatal(err)
	}
	var seq [][]int
	graph.EnumLabelings(inst.G.N(), len(alphabet), func(idx []int) bool {
		seq = append(seq, append([]int(nil), idx...))
		return true
	})
	jumps := append([][]int(nil), seq...)
	rand.New(rand.NewSource(1)).Shuffle(len(jumps), func(i, j int) { jumps[i], jumps[j] = jumps[j], jumps[i] })
	seq = append(seq, jumps...)
	pass := func() {
		for _, idx := range seq {
			if err := s.check(idx); err != nil {
				t.Fatalf("reveal decoder on C5 violated strong soundness: %v", err)
			}
		}
	}
	pass() // fill the verdict tables
	if n := testing.AllocsPerRun(20, pass); n != 0 {
		t.Errorf("steady-state check allocates %.1f objects per %d-labeling pass, want 0", n, len(seq))
	}
}

// TestMemoDecoderHitAllocs pins the interned-verdict fast path at zero
// allocations.
func TestMemoDecoderHitAllocs(t *testing.T) {
	views := memoTestViews(t)
	in := view.NewInterner()
	md := NewMemoDecoder(rejectAllDecoder{}, in)
	handles := make([]view.Handle, len(views))
	for i, mu := range views {
		handles[i] = in.Intern(mu)
		md.DecideInterned(handles[i], mu)
	}
	if n := testing.AllocsPerRun(100, func() {
		for i, mu := range views {
			md.DecideInterned(handles[i], mu)
		}
	}); n != 0 {
		t.Errorf("memo-hit DecideInterned allocates %.1f objects per pass, want 0", n)
	}
}
