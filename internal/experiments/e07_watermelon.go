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

// E7Watermelon reproduces Theorem 1.4: the non-anonymous scheme for
// watermelon graphs with O(log n)-bit certificates, including the
// certificate-size sweep exhibiting the logarithmic shape and the paper's
// two-identifier-assignment hiding construction (under the corrected
// mirror-symmetric port assignment).
func E7Watermelon(ctx context.Context) Table {
	t := Table{
		ID:      "E7",
		Title:   "Watermelon scheme (Theorem 1.4)",
		Columns: []string{"check", "scope", "result"},
	}
	s := decoders.Watermelon()

	// Completeness + size sweep over growing watermelons.
	sizes := ""
	for _, c := range []struct {
		name  string
		paths []int
	}{
		{"2 paths len 2", []int{2, 2}},
		{"3 paths len 4", []int{4, 4, 4}},
		{"4 paths len 8", []int{8, 8, 8, 8}},
		{"5 paths len 16", []int{16, 16, 16, 16, 16}},
		{"6 paths len 32", []int{32, 32, 32, 32, 32, 32}},
	} {
		g := graph.MustWatermelon(c.paths)
		labels, err := core.CheckCompleteness(s, core.NewInstance(g))
		if err != nil {
			t.Err = err
			return t
		}
		sizes += fmt.Sprintf("n=%d:%db ", g.N(), s.MaxLabelBits(labels))
	}
	t.AddRow("completeness + max cert bits", "watermelon sweep", sizes)

	// Parity sweep: same-parity paths accepted, mixed parity rejected by
	// the prover (non-bipartite).
	parity := ""
	for _, paths := range [][]int{{2, 2}, {3, 3}, {2, 4}, {3, 5}, {2, 3}, {4, 5}} {
		g := graph.MustWatermelon(paths)
		_, err := s.Prover.Certify(core.NewInstance(g))
		parity += fmt.Sprintf("%v:%v ", paths, err == nil)
	}
	t.AddRow("parity classification", "2-path watermelons", parity)

	rng := rand.New(rand.NewSource(5))
	gen := func(_ int, rng *rand.Rand) string {
		id1 := 1 + rng.Intn(8)
		id2 := id1 + 1 + rng.Intn(9-id1)
		c1 := rng.Intn(2)
		if rng.Intn(4) == 0 {
			return decoders.WatermelonEndpointLabel(id1, id2)
		}
		return decoders.WatermelonPathLabel(id1, id2, 1+rng.Intn(3), 1+rng.Intn(3), c1, 1+rng.Intn(3), 1-c1)
	}
	_, workers := parShardsWorkers()
	sc := scope().Named("E7")
	for _, g := range []*graph.Graph{graph.MustCycle(5), graph.MustWatermelon([]int{2, 3}), graph.Petersen()} {
		if err := core.FuzzStrongSoundness(ctx, sc, s.Decoder, s.Promise.Lang, core.NewInstance(g), 800, rng, gen, workers); err != nil {
			t.Err = err
			return t
		}
	}
	t.AddRow("strong soundness (fuzz x800)", "C5, odd theta, Petersen", "no violation")

	l1, l2, err := decoders.WatermelonHidingPair()
	if err != nil {
		t.Err = err
		return t
	}
	// The paper's view equalities under the corrected ports.
	mu11, _ := l1.ViewOf(0, 1)
	mu12, _ := l2.ViewOf(0, 1)
	mu41, _ := l1.ViewOf(3, 1)
	mu52, _ := l2.ViewOf(4, 1)
	t.AddRow("view(u1,I1) = view(u1,I2)", "P8 pair", mu11.Equal(mu12))
	t.AddRow("view(u4,I1) = view(u5,I2)", "P8 pair", mu41.Equal(mu52))
	ng, err := nbhd.BuildShardedCtx(ctx, sc, s.Decoder, nbhd.ShardedFromLabeled(l1, l2), 1, 1)
	if err != nil {
		t.Err = err
		return t
	}
	girth := ng.OddGirth()
	if girth == 0 {
		t.Err = fmt.Errorf("no odd cycle from the P8 identifier pair")
		return t
	}
	t.AddRow("hiding (odd cycle in V(D,8))", "two identifier assignments", fmt.Sprintf("length %d (paper: 7)", girth))
	t.Notes = "Paper: strong and hiding one-round LCP with O(log n) bits; measured: bit counts " +
		"grow logarithmically in n across the sweep, and the two-assignment construction yields " +
		"an odd 7-cycle. FINDING: under the paper's stated port assignment (port 1 toward " +
		"u_{i-1} everywhere) the claimed equality view(u4,I1) = view(u5,I2) fails — port 1 of " +
		"u4 leads to the identifier-3 node in I1 but port 1 of u5 leads to the identifier-5 " +
		"node in I2; making the port assignment mirror-symmetric about the path's middle " +
		"restores the construction verbatim."
	return t
}
