package decoders

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"hidinglcp/internal/core"
	"hidinglcp/internal/faults"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/obs"
	"hidinglcp/internal/sim"
)

// End-to-end properties across randomly generated promise-class instances:
// the prover's certificate is unanimously accepted, both through direct
// view extraction and through the message-passing simulator.

func randomWatermelon(rng *rand.Rand) *graph.Graph {
	k := 1 + rng.Intn(4)
	parity := 2 + rng.Intn(2) // 2 or 3
	paths := make([]int, k)
	for i := range paths {
		paths[i] = parity + 2*rng.Intn(3)
	}
	return graph.MustWatermelon(paths)
}

func TestWatermelonEndToEndProperty(t *testing.T) {
	s := Watermelon()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomWatermelon(rng)
		inst := core.NewInstance(g)
		labels, err := s.Prover.Certify(inst)
		if err != nil {
			return false
		}
		l := core.MustNewLabeled(inst, labels)
		direct, err := core.Run(s.Decoder, l)
		if err != nil {
			return false
		}
		viaSim, err := sim.RunSchemeFaultsCtx(context.Background(), obs.Scope{}, s, inst, faults.Plan{})
		if err != nil {
			return false
		}
		for v := range direct {
			if !direct[v] || !viaSim.Verdicts[v].Accepted() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDegreeOneEndToEndProperty(t *testing.T) {
	s := DegreeOne()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Random tree + pendant guarantees the promise class.
		g := graph.RandomTree(3+rng.Intn(8), rng)
		inst := core.NewAnonymousInstance(g)
		labels, err := s.Prover.Certify(inst)
		if err != nil {
			return false
		}
		all, err := core.AllAccept(s.Decoder, core.MustNewLabeled(inst, labels))
		return err == nil && all
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestShatterEndToEndProperty(t *testing.T) {
	s := Shatter()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Spiders with >= 2 legs of length >= 2 always have a shatter point
		// and are bipartite.
		k := 2 + rng.Intn(3)
		legs := make([]int, k)
		for i := range legs {
			legs[i] = 2 + rng.Intn(3)
		}
		g := graph.Spider(legs)
		inst := core.NewInstance(g)
		labels, err := s.Prover.Certify(inst)
		if err != nil {
			return false
		}
		all, err := core.AllAccept(s.Decoder, core.MustNewLabeled(inst, labels))
		return err == nil && all
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: unanimously accepted instances of every scheme have a bipartite
// accepting subgraph — strong soundness restated as an invariant over
// random adversarial labelings (labels drawn from the scheme alphabets).
func TestStrongSoundnessInvariantProperty(t *testing.T) {
	degOne := DegreeOne()
	cycleAlpha := EvenCycleAlphabet()
	even := EvenCycle()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.GNP(7, 0.4, rng)
		inst := core.NewAnonymousInstance(g)
		labelsA := make([]string, g.N())
		labelsB := make([]string, g.N())
		for v := range labelsA {
			labelsA[v] = DegOneAlphabet()[rng.Intn(4)]
			labelsB[v] = cycleAlpha[rng.Intn(len(cycleAlpha))]
		}
		for _, run := range []struct {
			s      core.Scheme
			labels []string
		}{{degOne, labelsA}, {even, labelsB}} {
			acc, err := core.AcceptingSet(run.s.Decoder, core.MustNewLabeled(inst, run.labels))
			if err != nil {
				return false
			}
			sub, _ := g.InducedSubgraph(acc)
			if !sub.IsBipartite() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
