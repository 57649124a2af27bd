package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"hidinglcp/internal/core"
	"hidinglcp/internal/decoders"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/nbhd"
)

// E6Shatter reproduces Theorem 1.3 (and Lemma 7.1): the non-anonymous
// scheme for graphs with a shatter point, its O(min{Δ², n} + log n)
// certificate size across a sweep of instances, the P8/P7 hiding pair, and
// — as a reproduction finding — the strong-soundness counterexample to the
// brief announcement's literal decoder together with the patched decoder
// surviving it.
func E6Shatter(ctx context.Context) Table {
	t := Table{
		ID:      "E6",
		Title:   "Shatter scheme (Theorem 1.3, Lemma 7.1)",
		Columns: []string{"check", "scope", "result"},
	}
	s := decoders.Shatter()

	// Lemma 7.1 both directions, exhaustively on small graphs: a graph with
	// a shatter point v is bipartite iff conditions (1)-(3) hold at v.
	lemmaChecked := 0
	graph.EnumConnectedGraphs(5, func(g *graph.Graph) bool {
		v := graph.HasShatterPoint(g)
		if v < 0 {
			return true
		}
		lemmaChecked++
		if got, want := lemma71Conditions(g, v), g.IsBipartite(); got != want {
			t.Err = fmt.Errorf("Lemma 7.1 mismatch on %v at %d: conditions=%v bipartite=%v", g, v, got, want)
			return false
		}
		return true
	})
	if t.Err != nil {
		return t
	}
	t.AddRow("Lemma 7.1 characterization", fmt.Sprintf("%d shattered graphs, n<=5", lemmaChecked), "both directions hold")

	// Completeness + certificate size sweep.
	sizes := ""
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"P5", graph.Path(5)},
		{"P9", graph.Path(9)},
		{"spider(3,3,3)", graph.Spider([]int{3, 3, 3})},
		{"grid 3x3", graph.Grid(3, 3)},
		{"grid 4x5", graph.Grid(4, 5)},
		{"grid 5x6", graph.Grid(5, 6)},
	} {
		labels, err := core.CheckCompleteness(s, core.NewInstance(c.g))
		if err != nil {
			t.Err = err
			return t
		}
		sizes += fmt.Sprintf("%s(n=%d):%db ", c.name, c.g.N(), s.MaxLabelBits(labels))
	}
	t.AddRow("completeness + max cert bits", "shatter-point sweep", sizes)

	shards, workers := parShardsWorkers()
	sc := scope().Named("E6")
	rng := rand.New(rand.NewSource(4))
	gen := decoders.MalformedShatterLabels(12, 4)
	for _, g := range []*graph.Graph{graph.MustCycle(5), graph.Petersen(), graph.MustWatermelon([]int{2, 3})} {
		if err := core.FuzzStrongSoundness(ctx, sc, s.Decoder, s.Promise.Lang, core.NewInstance(g), 800, rng, gen, workers); err != nil {
			t.Err = err
			return t
		}
	}
	t.AddRow("strong soundness (fuzz x800)", "C5, Petersen, odd theta", "no violation")

	// Hiding via the paper's P8/P7 pair.
	l1, l2 := decoders.ShatterHidingPair()
	ng, err := nbhd.BuildShardedCtx(ctx, sc, s.Decoder, nbhd.ShardedFromLabeled(l1, l2), shards, workers)
	if err != nil {
		t.Err = err
		return t
	}
	girth := ng.OddGirth()
	if girth == 0 {
		t.Err = fmt.Errorf("no odd cycle from the P8/P7 pair")
		return t
	}
	t.AddRow("hiding (P8/P7 pair, Lemma 3.2)", "V(D,8) slice", fmt.Sprintf("odd cycle of length %d (paper: 13)", girth))

	// The reproduction finding: the literal decoder accepts an odd 7-cycle.
	lit := decoders.ShatterLiteral()
	cex := literalShatterCounterexample()
	err = core.CheckStrongSoundness(lit.Decoder, lit.Promise.Lang, cex)
	var violation *core.StrongSoundnessViolation
	if !errors.As(err, &violation) {
		t.Err = fmt.Errorf("literal decoder unexpectedly survived the counterexample: %v", err)
		return t
	}
	t.AddRow("literal decoder (paper's conditions)", "9-node counterexample", "STRONG SOUNDNESS VIOLATED (odd 7-cycle accepted)")
	if err := core.CheckStrongSoundness(s.Decoder, s.Promise.Lang, cex); err != nil {
		t.Err = fmt.Errorf("patched decoder failed the counterexample: %w", err)
		return t
	}
	t.AddRow("patched decoder (this library)", "same counterexample", "no violation")
	t.Notes = "Paper: strong and hiding one-round LCP with O(min{Δ²,n}+log n) bits; measured: " +
		"completeness, hiding (odd view-cycle from the paper's own instance pair), and the " +
		"claimed size shape. FINDING: the decoder conditions as written in the brief " +
		"announcement are not strongly sound — two accepting type-1 nodes may carry different " +
		"color vectors when the type-0 node rejects; anchoring the vector in the type-0 " +
		"certificate (and checking the type-0 neighbor's real identifier) repairs the proof " +
		"without affecting completeness, hiding, or the size bound."
	return t
}

// lemma71Conditions evaluates conditions (1)-(3) of Lemma 7.1 at v.
func lemma71Conditions(g *graph.Graph, v int) bool {
	// (1) N(v) independent.
	nbs := g.Neighbors(v)
	for i := 0; i < len(nbs); i++ {
		for j := i + 1; j < len(nbs); j++ {
			if g.HasEdge(nbs[i], nbs[j]) {
				return false
			}
		}
	}
	rest, orig := g.DeleteClosedNeighborhood(v)
	for _, comp := range rest.Components() {
		sub, subOrig := rest.InducedSubgraph(comp)
		// (2) each component bipartite.
		coloring, ok := sub.TwoColoring()
		if !ok {
			return false
		}
		// (3) N²(v) touches only one part of the component.
		facing := -1
		for si, ri := range subOrig {
			host := orig[ri]
			for _, u := range nbs {
				if g.HasEdge(host, u) {
					if facing == -1 {
						facing = coloring[si]
					} else if facing != coloring[si] {
						return false
					}
				}
			}
		}
	}
	return true
}

// literalShatterCounterexample mirrors the instance of
// decoders' TestShatterLiteralNotStronglySound.
func literalShatterCounterexample() core.Labeled {
	g := graph.MustFromEdges(9, [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {5, 7}, {7, 8}, {8, 1},
	})
	inst := core.NewInstance(g)
	labels := []string{
		decoders.ShatterPointLabelLiteral(1),
		decoders.ShatterNeighborLabel(1, []int{0, 0}),
		decoders.ShatterCompLabel(1, 1, 0),
		decoders.ShatterCompLabel(1, 1, 1),
		decoders.ShatterCompLabel(1, 1, 0),
		decoders.ShatterNeighborLabel(1, []int{0, 1}),
		decoders.ShatterPointLabelLiteral(1),
		decoders.ShatterCompLabel(1, 2, 1),
		decoders.ShatterCompLabel(1, 2, 0),
	}
	return core.MustNewLabeled(inst, labels)
}
