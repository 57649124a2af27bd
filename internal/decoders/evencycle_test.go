package decoders

import (
	"context"
	"math/rand"
	"testing"

	"hidinglcp/internal/core"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/nbhd"
	"hidinglcp/internal/obs"
)

func TestEvenCycleCompleteness(t *testing.T) {
	s := EvenCycle()
	for n := 4; n <= 16; n += 2 {
		if _, err := core.CheckCompleteness(s, core.NewAnonymousInstance(graph.MustCycle(n))); err != nil {
			t.Errorf("completeness on C%d: %v", n, err)
		}
	}
}

func TestEvenCycleCompletenessAllPorts(t *testing.T) {
	s := EvenCycle()
	g := graph.MustCycle(6)
	graph.EnumPorts(g, func(pt *graph.Ports) bool {
		inst := core.Instance{G: g, Prt: pt, NBound: 6}
		if _, err := core.CheckCompleteness(s, inst); err != nil {
			t.Errorf("completeness under ports: %v", err)
			return false
		}
		return true
	})
}

func TestEvenCycleProverRejects(t *testing.T) {
	s := EvenCycle()
	for _, g := range []*graph.Graph{
		graph.MustCycle(5), graph.Path(4), graph.MustWatermelon([]int{2, 2, 2}),
	} {
		if _, err := s.Prover.Certify(core.NewAnonymousInstance(g)); err == nil {
			t.Errorf("prover certified non-even-cycle %v", g)
		}
	}
}

func TestEvenCycleStrongSoundnessExhaustiveC3(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive 65^3 labeling search")
	}
	s := EvenCycle()
	inst := core.NewAnonymousInstance(graph.MustCycle(3))
	if err := core.ExhaustiveStrongSoundnessParallelCtx(context.Background(), obs.Scope{}, s.Decoder, s.Promise.Lang, inst, EvenCycleAlphabet(), 1, 1); err != nil {
		t.Errorf("strong soundness on C3: %v", err)
	}
}

func TestEvenCycleStrongSoundnessFuzz(t *testing.T) {
	s := EvenCycle()
	rng := rand.New(rand.NewSource(13))
	alphabet := EvenCycleAlphabet()
	gen := func(_ int, rng *rand.Rand) string {
		return alphabet[rng.Intn(len(alphabet))]
	}
	for _, g := range []*graph.Graph{
		graph.MustCycle(5), graph.MustCycle(7), graph.Petersen(),
		graph.Complete(4), graph.MustWatermelon([]int{2, 3}),
	} {
		inst := core.NewAnonymousInstance(g)
		if err := core.FuzzStrongSoundnessParallelCtx(context.Background(), obs.Scope{}, s.Decoder, s.Promise.Lang, inst, 600, rng, gen, 1); err != nil {
			t.Errorf("fuzz on %v: %v", g, err)
		}
	}
}

// TestEvenCycleOddCycleRejected drives the interesting adversarial case
// directly: on an odd cycle no labeling can make all nodes accept, because
// a proper 2-edge-coloring of an odd cycle does not exist.
func TestEvenCycleOddCycleRejected(t *testing.T) {
	s := EvenCycle()
	// Build the "best effort" cheat: alternate edge colors around C5; the
	// wrap-around node necessarily sees two same-colored edges.
	g := graph.MustCycle(5)
	inst := core.NewAnonymousInstance(g)
	labels := make([]string, 5)
	for v := 0; v < 5; v++ {
		var q, c [3]int
		for _, w := range g.Neighbors(v) {
			j := inst.Prt.MustPort(v, w)
			q[j] = inst.Prt.MustPort(w, v)
			// Edge {v,w} colored by the smaller endpoint's parity.
			lo := v
			if w < lo {
				lo = w
			}
			// wrap edge {4,0} gets color 0 like edge {0,1} — conflict at 0.
			c[j] = lo % 2
		}
		labels[v] = EvenCycleLabel(q[1], c[1], q[2], c[2])
	}
	outs, err := core.Run(s.Decoder, core.MustNewLabeled(inst, labels))
	if err != nil {
		t.Fatal(err)
	}
	rejected := 0
	for _, ok := range outs {
		if !ok {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("all nodes accepted a cheating labeling of C5")
	}
}

// TestEvenCycleHiding reproduces Figs. 5/6: the slice of V(D, 6) built from
// all yes-instances (C4 and C6 under every port assignment and both
// 2-edge-coloring phases) contains an odd cycle, hence by Lemma 3.2 the
// scheme hides the 2-coloring.
func TestEvenCycleHiding(t *testing.T) {
	s := EvenCycle()
	family, err := EvenCycleFamily(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Every instance in the family is fully accepted (completeness for the
	// flipped phase too).
	for _, l := range family {
		all, err := core.AllAccept(s.Decoder, l)
		if err != nil {
			t.Fatal(err)
		}
		if !all {
			t.Fatalf("family instance not fully accepted: %v", l.G)
		}
	}
	ng, err := nbhd.BuildShardedCtx(context.Background(), obs.Scope{}, s.Decoder, nbhd.ShardedFromLabeled(family...), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cyc := ng.OddCycle()
	if cyc == nil {
		t.Fatalf("no odd cycle in V(D,6) slice (size %d, edges %d, loops %d)",
			ng.Size(), ng.EdgeCount(), ng.LoopCount())
	}
	if len(cyc)%2 == 0 {
		t.Fatalf("cycle %v has even length", cyc)
	}
}

// TestEvenCycleHiddenEverywhere checks the "hides the 2-coloring from all
// nodes" property (Section 4.2): on a certified even cycle, every
// view-consistent 2-coloring leaves a constant fraction of nodes in
// conflict — unlike DegreeOne, where a per-instance extraction exists.
func TestEvenCycleHiddenEverywhere(t *testing.T) {
	s := EvenCycle()
	// C6 under the port assignment where views repeat with period dividing
	// 2: adjacent nodes can share views, forcing conflicts everywhere.
	found := false
	g := graph.MustCycle(6)
	graph.EnumPorts(g, func(pt *graph.Ports) bool {
		inst := core.Instance{G: g, Prt: pt, NBound: 6}
		labels, err := s.Prover.Certify(inst)
		if err != nil {
			t.Fatal(err)
		}
		report, err := nbhd.MinExtractionConflicts(s.Decoder, core.MustNewLabeled(inst, labels), 2)
		if err != nil {
			t.Fatal(err)
		}
		if report.FailFraction >= 0.5 {
			found = true
			return false
		}
		return true
	})
	if !found {
		t.Error("no port assignment of C6 forces extraction conflicts at half the nodes")
	}
}

func TestEvenCycleLabelRoundTrip(t *testing.T) {
	l := EvenCycleLabel(2, 1, 1, 0)
	c, err := parseCycleCert(l)
	if err != nil {
		t.Fatal(err)
	}
	if c.farPort[1] != 2 || c.color[1] != 1 || c.farPort[2] != 1 || c.color[2] != 0 {
		t.Errorf("round trip lost data: %+v", c)
	}
}

func TestParseCycleCertErrors(t *testing.T) {
	bad := []string{
		"", "garbage", "C:", "C:3,0;1,1", "C:1,5;2,0", "C:1,0", "S0:5:",
	}
	for _, l := range bad {
		if _, err := parseCycleCert(l); err == nil {
			t.Errorf("parseCycleCert(%q) succeeded, want error", l)
		}
	}
}

func TestEvenCycleAlphabetSize(t *testing.T) {
	// 2 far ports x 2 colors per entry, two entries, plus one malformed.
	if got := len(EvenCycleAlphabet()); got != 17 {
		t.Errorf("alphabet size = %d, want 17", got)
	}
}

func TestFlipCycleLabelColors(t *testing.T) {
	labels := []string{EvenCycleLabel(1, 0, 2, 1), "junk"}
	flipped := FlipCycleLabelColors(labels)
	if flipped[0] != EvenCycleLabel(1, 1, 2, 0) {
		t.Errorf("flip = %q", flipped[0])
	}
	if flipped[1] != "junk" {
		t.Error("non-certificate labels should pass through")
	}
}

func TestEvenCycleCertBits(t *testing.T) {
	s := EvenCycle()
	if got := s.LabelBits(EvenCycleLabel(1, 0, 2, 1)); got != 6 {
		t.Errorf("LabelBits = %d, want 6", got)
	}
}

func TestEvenCycleStrongSoundnessExhaustiveC4(t *testing.T) {
	// 17^4 labelings of the even cycle C4 (a YES-instance): strong
	// soundness must hold on yes-instances too — any accepting subset of a
	// bipartite graph is trivially fine, but the run exercises the decoder
	// on every certificate combination without panics or false formats.
	s := EvenCycle()
	inst := core.NewAnonymousInstance(graph.MustCycle(4))
	if err := core.ExhaustiveStrongSoundnessParallelCtx(context.Background(), obs.Scope{}, s.Decoder, s.Promise.Lang, inst, EvenCycleAlphabet(), 1, 1); err != nil {
		t.Errorf("strong soundness on C4: %v", err)
	}
}

func TestEvenCycleAcceptingLabelingsAreTwoPhases(t *testing.T) {
	// On a fixed port assignment of C6 exactly two labelings are accepted
	// everywhere: the two proper 2-edge-colorings. Verified by exhaustive
	// search over all valid-format labelings at the wrap node... the full
	// 16^6 space is large, so enumerate per-node consistent labels
	// instead: every unanimously accepted labeling must equal the prover's
	// labeling or its flip.
	s := EvenCycle()
	g := graph.MustCycle(6)
	inst := core.NewAnonymousInstance(g)
	want, err := s.Prover.Certify(inst)
	if err != nil {
		t.Fatal(err)
	}
	flip := FlipCycleLabelColors(want)
	count := 0
	graph.EnumLabelings(3, 16, func(idx []int) bool {
		// Sample the space cheaply: fix nodes 3..5 to the prover labels and
		// enumerate nodes 0..2 over all 16 valid labels.
		labels := append([]string(nil), want...)
		alpha := EvenCycleAlphabet()
		for v, a := range idx {
			labels[v] = alpha[a]
		}
		all, err := core.AllAccept(s.Decoder, core.MustNewLabeled(inst, labels))
		if err != nil {
			t.Fatal(err)
		}
		if all {
			count++
			same := true
			for v := range labels {
				if labels[v] != want[v] && labels[v] != flip[v] {
					same = false
				}
			}
			if !same {
				t.Errorf("unexpected unanimously accepted labeling %v", labels)
			}
		}
		return true
	})
	if count != 1 {
		t.Errorf("found %d unanimous labelings in the restricted slice, want exactly 1 (the prover's)", count)
	}
}
