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

func TestDegreeOneKCompleteness(t *testing.T) {
	s := DegreeOneK(3)
	// 3-colorable graphs with a pendant node.
	pend := func(g *graph.Graph) *graph.Graph {
		h, err := graph.AttachPendant(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	for _, g := range []*graph.Graph{
		graph.Path(5),
		pend(graph.MustCycle(5)), // odd cycle + pendant: 3-chromatic
		pend(graph.Petersen()),   // 3-chromatic
		pend(graph.MustCycle(7)),
		graph.Spider([]int{2, 3}),
	} {
		if _, err := core.CheckCompleteness(s, core.NewAnonymousInstance(g)); err != nil {
			t.Errorf("completeness on %v: %v", g, err)
		}
	}
}

func TestDegreeOneKProverRejects(t *testing.T) {
	s := DegreeOneK(3)
	if _, err := s.Prover.Certify(core.NewAnonymousInstance(graph.Complete(4))); err == nil {
		t.Error("prover 3-certified K4")
	}
	if _, err := s.Prover.Certify(core.NewAnonymousInstance(graph.MustCycle(5))); err == nil {
		t.Error("prover certified a graph without pendants")
	}
}

func TestDegreeOneKStrongSoundnessExhaustive(t *testing.T) {
	// 5^n labelings on every connected graph up to 4 nodes for k = 3.
	s := DegreeOneK(3)
	alphabet := DegOneKAlphabet(3)
	for n := 2; n <= 4; n++ {
		graph.EnumConnectedGraphs(n, func(g *graph.Graph) bool {
			inst := core.NewAnonymousInstance(g.Clone())
			if err := core.ExhaustiveStrongSoundnessParallelCtx(context.Background(), obs.Scope{}, s.Decoder, s.Promise.Lang, inst, alphabet, 1, 1); err != nil {
				t.Errorf("strong soundness: %v", err)
				return false
			}
			return true
		})
	}
}

func TestDegreeOneKStrongSoundnessFuzz(t *testing.T) {
	s := DegreeOneK(3)
	alphabet := DegOneKAlphabet(3)
	rng := rand.New(rand.NewSource(37))
	gen := func(_ int, rng *rand.Rand) string { return alphabet[rng.Intn(len(alphabet))] }
	for _, g := range []*graph.Graph{
		graph.Complete(5), // needs 5 colors
		graph.MustWatermelon([]int{2, 3}),
		graph.Petersen(),
	} {
		inst := core.NewAnonymousInstance(g)
		if err := core.FuzzStrongSoundness(context.Background(), obs.Scope{}, s.Decoder, s.Promise.Lang, inst, 700, rng, gen, 1); err != nil {
			t.Errorf("fuzz on %v: %v", g, err)
		}
	}
}

func TestDegreeOneKTopFreeColor(t *testing.T) {
	// A ⊤ whose neighbors exhaust all k colors must reject (no free color
	// remains), the k-ary analogue of the common-β rule.
	s := DegreeOneK(3)
	g := graph.Star(5) // center 0 with 4 leaves
	inst := core.NewAnonymousInstance(g)
	full := []string{
		DegOneKLabel(3, -2), DegOneKLabel(3, -1),
		DegOneKLabel(3, 0), DegOneKLabel(3, 1), DegOneKLabel(3, 2),
	}
	outs, err := core.Run(s.Decoder, core.MustNewLabeled(inst, full))
	if err != nil {
		t.Fatal(err)
	}
	if outs[0] {
		t.Error("⊤ accepted neighbors exhausting all 3 colors")
	}
	ok := []string{
		DegOneKLabel(3, -2), DegOneKLabel(3, -1),
		DegOneKLabel(3, 0), DegOneKLabel(3, 1), DegOneKLabel(3, 0),
	}
	outs, err = core.Run(s.Decoder, core.MustNewLabeled(inst, ok))
	if err != nil {
		t.Fatal(err)
	}
	if !outs[0] {
		t.Error("⊤ rejected neighbors leaving a free color")
	}
}

func TestDegreeOneKMatchesDegreeOneForK2(t *testing.T) {
	// For k = 2 the generalization must agree with the Lemma 4.1 scheme on
	// every labeling of small instances (after translating the alphabets).
	orig := DegreeOne()
	gen := DegreeOneK(2)
	translate := map[string]string{
		DegOneBottom: DegOneKLabel(2, -1),
		DegOneTop:    DegOneKLabel(2, -2),
		DegOneColor0: DegOneKLabel(2, 0),
		DegOneColor1: DegOneKLabel(2, 1),
	}
	graph.EnumConnectedGraphs(4, func(g *graph.Graph) bool {
		inst := core.NewAnonymousInstance(g.Clone())
		graph.EnumLabelings(g.N(), 4, func(idx []int) bool {
			origLabels := make([]string, g.N())
			genLabels := make([]string, g.N())
			for v, a := range idx {
				origLabels[v] = DegOneAlphabet()[a]
				genLabels[v] = translate[origLabels[v]]
			}
			a, err := core.Run(orig.Decoder, core.MustNewLabeled(inst, origLabels))
			if err != nil {
				t.Fatal(err)
			}
			b, err := core.Run(gen.Decoder, core.MustNewLabeled(inst, genLabels))
			if err != nil {
				t.Fatal(err)
			}
			for v := range a {
				if a[v] != b[v] {
					t.Fatalf("disagreement at node %d of %v under %v: DegreeOne=%v DegreeOneK(2)=%v",
						v, g, origLabels, a[v], b[v])
				}
			}
			return true
		})
		return true
	})
}

// TestDegreeOneKHidingExploration records (without asserting) whether the
// k = 3 generalization exhibits a hiding witness on the small exhaustive
// slice: a non-3-colorable accepting neighborhood graph. This is the open
// direction the paper defers to future work.
func TestDegreeOneKHidingExploration(t *testing.T) {
	s := DegreeOneK(3)
	// Default ports only: exhausting port assignments as in E3 multiplies
	// the slice ~25x for no extra insight here.
	var insts []core.Instance
	for n := 2; n <= 4; n++ {
		graph.EnumConnectedGraphs(n, func(g *graph.Graph) bool {
			if g.MinDegree() == 1 && g.IsKColorable(3) {
				gc := g.Clone()
				insts = append(insts, core.Instance{G: gc, Prt: graph.DefaultPorts(gc), NBound: 4})
			}
			return true
		})
	}
	ng, err := nbhd.BuildShardedCtx(context.Background(), obs.Scope{}, s.Decoder, nbhd.ShardedAllLabelings(DegOneKAlphabet(3), insts...), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	threeColorable := ng.IsKColorable(3)
	t.Logf("DegreeOneK(3) slice: %d views, %d edges, 3-colorable: %v (non-3-colorable would witness hiding a 3-coloring)",
		ng.Size(), ng.EdgeCount(), threeColorable)
	if ng.Size() == 0 {
		t.Fatal("empty slice")
	}
	// The slice must at least be non-2-colorable: the k = 2 hiding
	// behaviour embeds (an odd cycle of views exists).
	if ng.IsKColorable(2) {
		t.Error("DegreeOneK(3) slice is 2-colorable; expected at least the embedded 2-hiding witness")
	}
	// Empirical finding recorded in EXPERIMENTS.md: the slice IS
	// 3-colorable at this size, i.e. the naive k-generalization does not
	// (yet) witness hiding a 3-coloring — matching the paper's decision to
	// defer the general-k hiding question.
}

func TestDegreeOneKCertBits(t *testing.T) {
	s := DegreeOneK(3)
	// Alphabet of 5 symbols -> 3 bits.
	if got := s.LabelBits(DegOneKLabel(3, 1)); got != 3 {
		t.Errorf("bits = %d, want 3", got)
	}
	if got := DegreeOneK(2).LabelBits(DegOneKLabel(2, 0)); got != 2 {
		t.Errorf("k=2 bits = %d, want 2", got)
	}
}

func TestParseDegOneKCertErrors(t *testing.T) {
	bad := []string{"", "K3", "K3:", "K3:9", "K3:x", "K2:1", "junk"}
	for _, l := range bad {
		if _, err := parseDegOneKCert(3, "K3:", l); err == nil {
			t.Errorf("parseDegOneKCert(3, %q) succeeded", l)
		}
	}
	if c, err := parseDegOneKCert(3, "K3:", "K3:2"); err != nil || c.kind != 'C' || c.color != 2 {
		t.Errorf("K3:2 parsed as %+v, %v", c, err)
	}
}
