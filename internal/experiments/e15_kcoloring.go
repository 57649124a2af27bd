package experiments

import (
	"context"

	"hidinglcp/internal/core"
	"hidinglcp/internal/decoders"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/nbhd"
)

// E15KColoring explores the general-k direction the paper defers
// (Section 1.3: "our framework for lower bounds is also applicable to
// k-coloring for arbitrary values of k... we do not address those"): the
// library's DegreeOneK(k) scheme generalizes Lemma 4.1's construction to
// k-coloring — complete and strongly sound for every k — and the
// experiment asks whether its neighborhood slice witnesses hiding a
// k-coloring (a non-k-colorable V(D, n)).
func E15KColoring(ctx context.Context) Table {
	t := Table{
		ID:      "E15",
		Title:   "k-coloring generalization of the DegreeOne scheme (extension)",
		Columns: []string{"k", "completeness", "strong soundness (exhaustive n<=4)", "slice views", "slice k-colorable", "hides a k-coloring at this size"},
	}
	// The sweeps and builds run sequentially (one shard, one worker): each
	// is small enough that sharding only adds overhead.
	sc := scope().Named("E15")
	for _, k := range []int{2, 3, 4} {
		s := decoders.DegreeOneK(k)

		// Completeness over k-chromatic-or-less pendant graphs.
		complete := true
		pend := func(g *graph.Graph) *graph.Graph {
			h, err := graph.AttachPendant(g, 0)
			if err != nil {
				t.Err = err
				return g
			}
			return h
		}
		corpus := []*graph.Graph{graph.Path(5), graph.Spider([]int{2, 3})}
		if k >= 3 {
			corpus = append(corpus, pend(graph.MustCycle(5)), pend(graph.Petersen()))
		}
		if k >= 4 {
			corpus = append(corpus, pend(graph.Complete(4)))
		}
		for _, g := range corpus {
			if _, err := core.CheckCompleteness(s, core.NewAnonymousInstance(g)); err != nil {
				t.Err = err
				complete = false
			}
		}
		if t.Err != nil {
			return t
		}

		// Exhaustive strong soundness on all connected graphs up to n = 4.
		sound := true
		for n := 2; n <= 4 && sound; n++ {
			graph.EnumConnectedGraphs(n, func(g *graph.Graph) bool {
				inst := core.NewAnonymousInstance(g.Clone())
				if err := core.ExhaustiveStrongSoundnessParallelCtx(ctx, sc, s.Decoder, s.Promise.Lang, inst, decoders.DegOneKAlphabet(k), 1, 1); err != nil {
					t.Err = err
					sound = false
					return false
				}
				return true
			})
		}
		if t.Err != nil {
			return t
		}

		// The hiding question: is the exhaustive default-port slice
		// k-colorable?
		var insts []core.Instance
		for n := 2; n <= 4; n++ {
			graph.EnumConnectedGraphs(n, func(g *graph.Graph) bool {
				if g.MinDegree() == 1 && g.IsKColorable(k) {
					gc := g.Clone()
					insts = append(insts, core.Instance{G: gc, Prt: graph.DefaultPorts(gc), NBound: 4})
				}
				return true
			})
		}
		ng, err := nbhd.BuildShardedCtx(ctx, sc, s.Decoder, nbhd.ShardedAllLabelings(decoders.DegOneKAlphabet(k), insts...), 1, 1)
		if err != nil {
			t.Err = err
			return t
		}
		colorable := ng.IsKColorable(k)
		t.AddRow(k, complete, sound, ng.Size(), colorable, !colorable)
	}
	t.Notes = "Extension finding: the pendant-hiding construction stays complete and strongly " +
		"sound for every k (the ⊤ node checks a color remains free), and for k = 2 it hides " +
		"by Lemma 3.2. For k >= 3 the small exhaustive slices ARE k-colorable — the naive " +
		"generalization does not witness hiding a k-coloring at these sizes, matching the " +
		"paper's choice to leave the general-k hiding question open (and consistent with the " +
		"star-graph caveat of Section 1.1: richer structure may force extractability)."
	return t
}
