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

func TestUnionCompleteness(t *testing.T) {
	s := Union()
	// H1 members (δ = 1) and H2 members (even cycles) through one scheme.
	for _, g := range []*graph.Graph{
		graph.Path(5), graph.Star(4), graph.Spider([]int{1, 2, 3}),
		graph.MustCycle(4), graph.MustCycle(8), graph.MustCycle(12),
	} {
		if _, err := core.CheckCompleteness(s, core.NewAnonymousInstance(g)); err != nil {
			t.Errorf("completeness on %v: %v", g, err)
		}
	}
}

func TestUnionProverRejects(t *testing.T) {
	s := Union()
	for _, g := range []*graph.Graph{
		graph.MustCycle(5),                // odd cycle
		graph.Grid(3, 3),                  // min degree 2, not a cycle
		graph.MustWatermelon([]int{2, 2}), // C4-like but check: it IS an even cycle
	} {
		_, err := s.Prover.Certify(core.NewAnonymousInstance(g))
		isEvenCycle := g.IsCycleGraph() && g.N()%2 == 0
		hasDegOne := g.N() >= 2 && g.MinDegree() == 1
		if (err == nil) != (isEvenCycle || hasDegOne) {
			t.Errorf("prover on %v: err = %v", g, err)
		}
	}
}

func TestUnionStrongSoundnessExhaustiveMixed(t *testing.T) {
	// The union decoder must stay strongly sound under MIXED labelings: both
	// sub-alphabets on one instance. Exhaustive over all connected graphs on
	// 3 nodes with a mixed alphabet.
	s := Union()
	alphabet := append(append([]string{}, DegOneAlphabet()...),
		EvenCycleLabel(1, 0, 1, 1), EvenCycleLabel(2, 1, 1, 0), "junk")
	graph.EnumConnectedGraphs(3, func(g *graph.Graph) bool {
		gc := g.Clone()
		graph.EnumPorts(gc, func(pt *graph.Ports) bool {
			inst := core.Instance{G: gc, Prt: pt, NBound: 3}
			if err := core.ExhaustiveStrongSoundnessParallelCtx(context.Background(), obs.Scope{}, s.Decoder, s.Promise.Lang, inst, alphabet, 1, 1); err != nil {
				t.Errorf("strong soundness: %v", err)
				return false
			}
			return true
		})
		return true
	})
}

func TestUnionStrongSoundnessFuzzMixed(t *testing.T) {
	s := Union()
	rng := rand.New(rand.NewSource(23))
	cycleAlpha := EvenCycleAlphabet()
	gen := func(_ int, rng *rand.Rand) string {
		if rng.Intn(2) == 0 {
			return DegOneAlphabet()[rng.Intn(4)]
		}
		return cycleAlpha[rng.Intn(len(cycleAlpha))]
	}
	for _, g := range []*graph.Graph{
		graph.MustCycle(5), graph.MustCycle(7), graph.Petersen(),
		graph.MustWatermelon([]int{2, 3}), graph.Complete(4),
	} {
		inst := core.NewAnonymousInstance(g)
		if err := core.FuzzStrongSoundness(context.Background(), obs.Scope{}, s.Decoder, s.Promise.Lang, inst, 800, rng, gen, 1); err != nil {
			t.Errorf("fuzz on %v: %v", g, err)
		}
	}
}

func TestUnionHomogeneousBoundary(t *testing.T) {
	// A DegreeOne-colored node with an EvenCycle-labeled neighbor rejects,
	// and vice versa — the property making mixed accepting components
	// impossible.
	s := Union()
	g := graph.Path(3)
	inst := core.NewAnonymousInstance(g)
	labels := []string{DegOneColor0, EvenCycleLabel(1, 0, 1, 1), DegOneColor1}
	outs, err := core.Run(s.Decoder, core.MustNewLabeled(inst, labels))
	if err != nil {
		t.Fatal(err)
	}
	if outs[0] {
		t.Error("colored node accepted an even-cycle-labeled neighbor")
	}
	if outs[1] {
		t.Error("even-cycle node accepted degree-one-labeled neighbors")
	}
}

func TestUnionHiding(t *testing.T) {
	// The union scheme inherits hiding from both parts: its V(D, n) slice
	// over the degree-one family alone already contains an odd cycle.
	s := Union()
	ng, err := nbhd.BuildShardedCtx(context.Background(), obs.Scope{}, s.Decoder, nbhd.ShardedAllLabelings(DegOneAlphabet(), DegOneFamily(4)...), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ng.OddCycle() == nil {
		t.Error("union scheme lost the degree-one odd cycle")
	}
	family, err := EvenCycleFamily(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	ng2, err := nbhd.BuildShardedCtx(context.Background(), obs.Scope{}, s.Decoder, nbhd.ShardedFromLabeled(family...), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ng2.OddCycle() == nil {
		t.Error("union scheme lost the even-cycle odd cycle")
	}
}

func TestUnionAnonymousConstantSize(t *testing.T) {
	s := Union()
	if !s.Decoder.Anonymous() || s.Decoder.Rounds() != 1 {
		t.Error("union must be anonymous and one-round")
	}
	if got := s.LabelBits("anything"); got != 6 {
		t.Errorf("LabelBits = %d, want constant 6", got)
	}
}
