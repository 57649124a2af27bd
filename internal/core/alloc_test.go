//go:build !race

package core

import (
	"math/rand"
	"testing"

	"hidinglcp/internal/cancel"
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

// TestLabelSweepSteadyStateAllocs pins the memoized soundness sweep, as
// the exhaustive search drives it (sweepShard walking its cursor), at zero
// allocations once every (node, neighborhood-labeling) rank and the
// language verdict are memoized. The race detector instruments
// allocations, so this runs only in plain builds.
func TestLabelSweepSteadyStateAllocs(t *testing.T) {
	inst := NewAnonymousInstance(graph.MustCycle(4))
	alphabet := []string{"0", "1"}
	s, err := newLabelSweep(rejectAllDecoder{}, TwoCol(), inst, alphabet)
	if err != nil {
		t.Fatal(err)
	}
	var stop cancel.Stop
	sweep := func() {
		var first cancel.First
		s.sweepShard(0, 1, &stop, &first, nil)
		if err := first.Err(); err != nil {
			t.Fatalf("reject-all sweep found a violation: %v", err)
		}
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
		handles[i] = in.InternKey(mu.BinKey(), mu)
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

// TestRunAllocs pins Run at a constant number of allocations whatever the
// instance size: the verdict slice, the extractor's scratch, the template
// with its two arrays, and the view with its label slice, once per walk
// and none per node.
func TestRunAllocs(t *testing.T) {
	for _, anon := range []bool{false, true} {
		d := NewDecoder(2, anon, func(mu *view.View) bool { return mu.Degree(view.Center) > 2 })
		counts := make([]float64, 0, 2)
		for _, g := range []*graph.Graph{graph.Grid(2, 3), graph.Grid(3, 4)} {
			l := MustNewLabeled(NewInstance(g), make([]string, g.N()))
			counts = append(counts, testing.AllocsPerRun(20, func() {
				if _, err := Run(d, l); err != nil {
					t.Fatal(err)
				}
			}))
		}
		if counts[0] != counts[1] || counts[0] > 7 {
			t.Errorf("anonymous=%v: Run allocates %.0f objects on 6 nodes and %.0f on 12, want one constant of at most 7", anon, counts[0], counts[1])
		}
	}
}
