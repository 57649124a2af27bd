package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"hidinglcp/internal/core"
	"hidinglcp/internal/decoders"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/nbhd"
)

// E3DegreeOne reproduces Lemma 4.1 and Figs. 3/4: the anonymous DegreeOne
// scheme is complete on the class H1, strongly sound under exhaustive
// adversarial labelings, and hiding — the exhaustive slice of V(D, 4)
// contains an odd cycle, found automatically.
func E3DegreeOne(ctx context.Context) Table {
	t := Table{
		ID:      "E3",
		Title:   "DegreeOne scheme (Lemma 4.1, Figs. 3-4)",
		Columns: []string{"check", "scope", "result"},
	}
	s := decoders.DegreeOne()

	// Completeness over the whole class up to n = 6.
	completeness := 0
	for n := 2; n <= 6; n++ {
		ok := true
		graph.EnumConnectedGraphs(n, func(g *graph.Graph) bool {
			if !g.IsBipartite() || g.MinDegree() != 1 {
				return true
			}
			completeness++
			if _, err := core.CheckCompleteness(s, core.NewAnonymousInstance(g.Clone())); err != nil {
				t.Err = err
				ok = false
				return false
			}
			return true
		})
		if !ok {
			return t
		}
	}
	t.AddRow("completeness", fmt.Sprintf("%d connected bipartite δ=1 graphs, n<=6", completeness), "all accept")

	// Exhaustive strong soundness on every connected graph up to n = 4,
	// each 4^n labeling space searched in labeling-prefix shards.
	shards, workers := parShardsWorkers()
	sc := scope().Named("E3")
	checked := 0
	for n := 2; n <= 4; n++ {
		graph.EnumConnectedGraphs(n, func(g *graph.Graph) bool {
			checked++
			inst := core.NewAnonymousInstance(g.Clone())
			if err := core.ExhaustiveStrongSoundnessParallelCtx(ctx, sc, s.Decoder, s.Promise.Lang, inst, decoders.DegOneAlphabet(), shards, workers); err != nil {
				t.Err = err
				return false
			}
			return true
		})
	}
	if t.Err != nil {
		return t
	}
	t.AddRow("strong soundness (exhaustive 4^n labelings)", fmt.Sprintf("%d connected graphs, n<=4", checked), "no violation")

	rng := rand.New(rand.NewSource(1))
	gen := func(_ int, rng *rand.Rand) string { return decoders.DegOneAlphabet()[rng.Intn(4)] }
	for _, g := range []*graph.Graph{graph.Petersen(), graph.Complete(5)} {
		if err := core.FuzzStrongSoundnessParallelCtx(ctx, sc, s.Decoder, s.Promise.Lang, core.NewAnonymousInstance(g), 500, rng, gen, workers); err != nil {
			t.Err = err
			return t
		}
	}
	t.AddRow("strong soundness (fuzz x500)", "Petersen, K5", "no violation")

	// Hiding: exhaustive slice of V(D, 4), built shard-parallel.
	ng, err := nbhd.BuildShardedCtx(ctx, sc, s.Decoder, nbhd.ShardedAllLabelings(decoders.DegOneAlphabet(), decoders.DegOneFamily(4)...), shards, workers)
	if err != nil {
		t.Err = err
		return t
	}
	cyc := ng.OddCycle()
	t.AddRow("V(D,4) size / edges / loops", "", fmt.Sprintf("%d / %d / %d", ng.Size(), ng.EdgeCount(), ng.LoopCount()))
	if cyc == nil {
		t.Err = fmt.Errorf("no odd cycle found: hiding NOT reproduced")
		return t
	}
	t.AddRow("hiding (odd cycle in V(D,4), Lemma 3.2)", "exhaustive connected slice", fmt.Sprintf("odd cycle of length %d found", len(cyc)))
	t.Notes = "Paper (Fig. 4): an odd 5-cycle exists in V(D,4); measured: the exhaustive slice " +
		"contains odd cycles (the BFS detector reports one such cycle; its length may differ " +
		"from the paper's hand-drawn witness). Certificate size: constant 2 bits, matching " +
		"Theorem 1.1."
	return t
}
