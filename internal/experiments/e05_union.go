package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"hidinglcp/internal/core"
	"hidinglcp/internal/decoders"
	"hidinglcp/internal/graph"
)

// E5Union reproduces Theorem 1.1: one anonymous, one-round, constant-size
// scheme covering H1 ∪ H2, with completeness across both sub-classes and
// strong soundness under mixed adversarial labelings.
func E5Union(ctx context.Context) Table {
	t := Table{
		ID:      "E5",
		Title:   "Union scheme for H1 ∪ H2 (Theorem 1.1)",
		Columns: []string{"instance", "class", "all accept", "max cert bits"},
	}
	s := decoders.Union()
	corpus := []struct {
		name  string
		g     *graph.Graph
		class string
	}{
		{"P6", graph.Path(6), "H1 (δ=1)"},
		{"star K1,5", graph.Star(6), "H1 (δ=1)"},
		{"spider(2,3,4)", graph.Spider([]int{2, 3, 4}), "H1 (δ=1)"},
		{"C4+pendant", mustPendant(graph.MustCycle(4), 0), "H1 (δ=1)"},
		{"C6", graph.MustCycle(6), "H2 (even cycle)"},
		{"C12", graph.MustCycle(12), "H2 (even cycle)"},
	}
	for _, c := range corpus {
		inst := core.NewAnonymousInstance(c.g)
		labels, err := core.CheckCompleteness(s, inst)
		if err != nil {
			t.Err = err
			return t
		}
		t.AddRow(c.name, c.class, true, s.MaxLabelBits(labels))
	}

	rng := rand.New(rand.NewSource(3))
	cycleAlpha := decoders.EvenCycleAlphabet()
	gen := func(_ int, rng *rand.Rand) string {
		if rng.Intn(2) == 0 {
			return decoders.DegOneAlphabet()[rng.Intn(4)]
		}
		return cycleAlpha[rng.Intn(len(cycleAlpha))]
	}
	_, workers := parShardsWorkers()
	sc := scope().Named("E5")
	for _, g := range []*graph.Graph{graph.MustCycle(5), graph.Petersen(), graph.MustWatermelon([]int{2, 3})} {
		if err := core.FuzzStrongSoundnessParallelCtx(ctx, sc, s.Decoder, s.Promise.Lang, core.NewAnonymousInstance(g), 600, rng, gen, workers); err != nil {
			t.Err = err
			return t
		}
	}
	t.Notes = "Paper: a single strong and hiding anonymous one-round LCP with constant-size " +
		"certificates exists for H1 ∪ H2; measured: completeness across both classes with " +
		"certificates of at most 6 bits, and no strong-soundness violation under 600 mixed " +
		"adversarial labelings per no-instance (C5, Petersen, odd theta). Hiding is inherited " +
		"from both parts (E3, E4); mixed accepting components are impossible because each " +
		"sub-format rejects the other's labels on its neighbors."
	return t
}

func mustPendant(g *graph.Graph, v int) *graph.Graph {
	h, err := graph.AttachPendant(g, v)
	if err != nil {
		panic(fmt.Sprintf("experiments: pendant: %v", err))
	}
	return h
}
