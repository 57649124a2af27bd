package decoders

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"hidinglcp/internal/core"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/nbhd"
	"hidinglcp/internal/obs"
)

func TestTrivialCompleteness(t *testing.T) {
	s := Trivial(2)
	for _, g := range []*graph.Graph{
		graph.Path(5), graph.MustCycle(6), graph.Grid(3, 4),
		graph.CompleteBipartite(2, 3), graph.Star(5),
	} {
		if _, err := core.CheckCompleteness(s, core.NewAnonymousInstance(g)); err != nil {
			t.Errorf("completeness on %v: %v", g, err)
		}
	}
}

func TestTrivialThreeColoring(t *testing.T) {
	s := Trivial(3)
	for _, g := range []*graph.Graph{graph.MustCycle(5), graph.Petersen()} {
		if _, err := core.CheckCompleteness(s, core.NewAnonymousInstance(g)); err != nil {
			t.Errorf("3-col completeness on %v: %v", g, err)
		}
	}
	if _, err := s.Prover.Certify(core.NewAnonymousInstance(graph.Complete(4))); err == nil {
		t.Error("prover 3-colored K4")
	}
}

func TestTrivialStrongSoundnessExhaustive(t *testing.T) {
	s := Trivial(2)
	alphabet := []string{"0", "1", "2", "junk"}
	for _, g := range []*graph.Graph{graph.MustCycle(3), graph.MustCycle(5), graph.Complete(4)} {
		inst := core.NewAnonymousInstance(g)
		if err := core.ExhaustiveStrongSoundnessParallelCtx(context.Background(), obs.Scope{}, s.Decoder, s.Promise.Lang, inst, alphabet, 1, 1); err != nil {
			t.Errorf("strong soundness on %v: %v", g, err)
		}
	}
}

func TestTrivialNotHiding(t *testing.T) {
	// Exhaustive slice of V(D, 4) over connected bipartite graphs: the
	// revealing scheme's neighborhood graph must be 2-colorable, i.e. by
	// Lemma 3.2 the scheme is NOT hiding, and the extraction decoder exists.
	s := Trivial(2)
	var insts []core.Instance
	for n := 2; n <= 4; n++ {
		graph.EnumConnectedGraphs(n, func(g *graph.Graph) bool {
			if g.IsBipartite() {
				gc := g.Clone()
				graph.EnumPorts(gc, func(pt *graph.Ports) bool {
					insts = append(insts, core.Instance{G: gc, Prt: pt, NBound: 4})
					return true
				})
			}
			return true
		})
	}
	ng, err := nbhd.BuildShardedCtx(context.Background(), obs.Scope{}, s.Decoder, nbhd.ShardedAllLabelings([]string{"0", "1"}, insts...), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ng.Size() == 0 {
		t.Fatal("no accepting views")
	}
	if ng.Hiding() {
		t.Fatal("trivial scheme reported hiding on exhaustive slice")
	}
	ex, err := nbhd.NewExtractor(ng, 2, true)
	if err != nil {
		t.Fatalf("extractor: %v", err)
	}
	// Extract from a fresh certified star (its views appear in the slice).
	target := core.Instance{G: graph.Star(4), Prt: graph.DefaultPorts(graph.Star(4)), NBound: 4}
	labels, err := s.Prover.Certify(target)
	if err != nil {
		t.Fatal(err)
	}
	witness, err := ex.ExtractWitness(core.MustNewLabeled(target, labels), 1)
	if err != nil {
		t.Fatalf("ExtractWitness: %v", err)
	}
	if !target.G.IsProperColoring(witness) {
		t.Errorf("extracted witness %v not proper", witness)
	}
}

func TestTrivialCertBits(t *testing.T) {
	tests := []struct {
		k, want int
	}{
		{2, 1}, {3, 2}, {4, 2}, {5, 3}, {16, 4}, {17, 5},
	}
	for _, tt := range tests {
		s := Trivial(tt.k)
		if got := s.LabelBits("0"); got != tt.want {
			t.Errorf("Trivial(%d) bits = %d, want %d", tt.k, got, tt.want)
		}
	}
}

func TestTrivialFuzzStrongSoundness(t *testing.T) {
	s := Trivial(3)
	rng := rand.New(rand.NewSource(7))
	gen := func(_ int, rng *rand.Rand) string {
		if rng.Intn(10) == 0 {
			return "x"
		}
		return strconv.Itoa(rng.Intn(4))
	}
	for _, g := range []*graph.Graph{graph.Petersen(), graph.Complete(5)} {
		inst := core.NewAnonymousInstance(g)
		if err := core.FuzzStrongSoundnessParallelCtx(context.Background(), obs.Scope{}, s.Decoder, s.Promise.Lang, inst, 300, rng, gen, 1); err != nil {
			t.Errorf("fuzz on %v: %v", g, err)
		}
	}
}

func TestTrivialAnonymous(t *testing.T) {
	s := Trivial(2)
	if !s.Decoder.Anonymous() {
		t.Error("trivial decoder should be anonymous")
	}
	if s.Decoder.Rounds() != 1 {
		t.Error("trivial decoder should be one-round")
	}
}
