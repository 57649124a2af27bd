package decoders

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"hidinglcp/internal/core"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/nbhd"
	"hidinglcp/internal/obs"
)

func TestShatterCompleteness(t *testing.T) {
	s := Shatter()
	for _, g := range []*graph.Graph{
		graph.Path(5), graph.Path(8), graph.Spider([]int{2, 2, 2}),
		graph.Grid(3, 3), graph.Grid(4, 4), graph.CompleteBinaryTree(3),
	} {
		if graph.HasShatterPoint(g) < 0 {
			t.Fatalf("test graph %v has no shatter point", g)
		}
		if _, err := core.CheckCompleteness(s, core.NewInstance(g)); err != nil {
			t.Errorf("completeness on %v: %v", g, err)
		}
	}
}

func TestShatterCompletenessExhaustiveSmall(t *testing.T) {
	// Every connected bipartite graph with a shatter point on up to 6 nodes.
	s := Shatter()
	count := 0
	for n := 5; n <= 6; n++ {
		graph.EnumConnectedGraphs(n, func(g *graph.Graph) bool {
			if !g.IsBipartite() || graph.HasShatterPoint(g) < 0 {
				return true
			}
			count++
			if _, err := core.CheckCompleteness(s, core.NewInstance(g.Clone())); err != nil {
				t.Errorf("completeness: %v", err)
				return false
			}
			return true
		})
	}
	if count == 0 {
		t.Fatal("no instances exercised")
	}
}

func TestShatterProverRejects(t *testing.T) {
	s := Shatter()
	if _, err := s.Prover.Certify(core.NewInstance(graph.MustCycle(6))); err == nil {
		t.Error("prover certified a cycle (no shatter point)")
	}
	if _, err := s.Prover.Certify(core.NewInstance(graph.MustCycle(5))); err == nil {
		t.Error("prover certified an odd cycle")
	}
	inst := core.NewAnonymousInstance(graph.Path(5))
	if _, err := s.Prover.Certify(inst); err == nil {
		t.Error("prover certified an anonymous instance (scheme needs IDs)")
	}
}

func TestShatterStrongSoundnessFuzz(t *testing.T) {
	s := Shatter()
	rng := rand.New(rand.NewSource(17))
	gen := MalformedShatterLabels(9, 3)
	for _, g := range []*graph.Graph{
		graph.MustCycle(5), graph.MustCycle(7), graph.Petersen(),
		graph.Complete(4), graph.MustWatermelon([]int{2, 3}), graph.Grid(3, 3),
	} {
		inst := core.NewInstance(g)
		if err := core.FuzzStrongSoundness(context.Background(), obs.Scope{}, s.Decoder, s.Promise.Lang, inst, 800, rng, gen, 1); err != nil {
			t.Errorf("fuzz on %v: %v", g, err)
		}
	}
}

// literalCounterexample builds the labeled instance on which the paper's
// literal Theorem 1.3 decoder accepts an odd cycle: two type-1 nodes u, u'
// carrying DIFFERENT color vectors, each next to its own (rejected or
// incidentally accepted) type-0 node, joined through two path components
// whose facing colors are consistent with both vectors yet of mismatched
// parity.
//
// Nodes: t=0, u=1, a1=2, m=3, a2=4, u'=5, t'=6, b2=7, b1=8.
// Cycle: u-a1-m-a2-u'-b2-b1-u (length 7).
func literalCounterexample() core.Labeled {
	g := graph.MustFromEdges(9, [][2]int{
		{0, 1},         // t - u
		{1, 2},         // u - a1
		{2, 3}, {3, 4}, // a1 - m - a2
		{4, 5}, // a2 - u'
		{5, 6}, // u' - t'
		{5, 7}, // u' - b2
		{7, 8}, // b2 - b1
		{8, 1}, // b1 - u
	})
	inst := core.NewInstance(g) // IDs 1..9; Id(t) = 1
	labels := []string{
		ShatterPointLabelLiteral(1),          // t: claims shatter id 1 = Id(t)
		ShatterNeighborLabel(1, []int{0, 0}), // u
		ShatterCompLabel(1, 1, 0),            // a1
		ShatterCompLabel(1, 1, 1),            // m
		ShatterCompLabel(1, 1, 0),            // a2
		ShatterNeighborLabel(1, []int{0, 1}), // u' — DIFFERENT vector
		ShatterPointLabelLiteral(1),          // t': claims id 1 but Id(t')=7
		ShatterCompLabel(1, 2, 1),            // b2
		ShatterCompLabel(1, 2, 0),            // b1
	}
	return core.MustNewLabeled(inst, labels)
}

// TestShatterLiteralNotStronglySound documents the gap in the brief
// announcement's Theorem 1.3 decoder: the literal conditions accept an odd
// cycle.
func TestShatterLiteralNotStronglySound(t *testing.T) {
	s := ShatterLiteral()
	l := literalCounterexample()
	err := core.CheckStrongSoundness(s.Decoder, s.Promise.Lang, l)
	if err == nil {
		t.Fatal("literal decoder passed strong soundness on the counterexample; expected a violation")
	}
	var v *core.StrongSoundnessViolation
	if !errors.As(err, &v) {
		t.Fatalf("unexpected error type %T: %v", err, err)
	}
	// The 7-cycle u-a1-m-a2-u'-b2-b1 must be fully accepting.
	accepting := make(map[int]bool, len(v.Accepting))
	for _, node := range v.Accepting {
		accepting[node] = true
	}
	for _, node := range []int{1, 2, 3, 4, 5, 7, 8} {
		if !accepting[node] {
			t.Errorf("cycle node %d not accepting", node)
		}
	}
}

// TestShatterPatchedSurvivesCounterexample verifies the patched decoder
// rejects enough of the counterexample to keep the accepting subgraph
// bipartite: u' must reject because its type-0 neighbor t' does not carry
// the announced identifier.
func TestShatterPatchedSurvivesCounterexample(t *testing.T) {
	s := Shatter()
	l := literalCounterexample()
	if err := core.CheckStrongSoundness(s.Decoder, s.Promise.Lang, l); err != nil {
		t.Fatalf("patched decoder violated strong soundness: %v", err)
	}
	outs, err := core.Run(s.Decoder, l)
	if err != nil {
		t.Fatal(err)
	}
	if outs[5] {
		t.Error("u' accepted despite its type-0 neighbor carrying the wrong identifier")
	}
}

// TestShatterPatchedVectorAnchored: two type-1 nodes adjacent to the SAME
// correctly-identified type-0 node cannot carry different vectors — the
// patched check forces both to match the type-0 certificate.
func TestShatterPatchedVectorAnchored(t *testing.T) {
	s := Shatter()
	// t in the middle, u and u' both adjacent to it.
	g := graph.MustFromEdges(3, [][2]int{{0, 1}, {0, 2}})
	inst := core.NewInstance(g) // Id(t)=1
	labels := []string{
		ShatterPointLabel(1, []int{0, 0}),
		ShatterNeighborLabel(1, []int{0, 0}),
		ShatterNeighborLabel(1, []int{0, 1}), // mismatched vector
	}
	outs, err := core.Run(s.Decoder, core.MustNewLabeled(inst, labels))
	if err != nil {
		t.Fatal(err)
	}
	if outs[2] {
		t.Error("type-1 node accepted with a vector differing from its type-0 anchor")
	}
	if !outs[1] {
		t.Error("type-1 node with the matching vector should accept")
	}
	if outs[0] {
		t.Error("type-0 node accepted neighbors with differing content")
	}
}

// TestShatterHiding reproduces the hiding part of Theorem 1.3: the P8/P7
// pair is fully accepted, the views of the two far-end nodes coincide across
// the pair, and the lifted paths close an odd cycle in V(D, 8).
func TestShatterHiding(t *testing.T) {
	s := Shatter()
	l1, l2 := ShatterHidingPair()
	for i, l := range []core.Labeled{l1, l2} {
		outs, err := core.Run(s.Decoder, l)
		if err != nil {
			t.Fatal(err)
		}
		for v, ok := range outs {
			if !ok {
				t.Fatalf("instance %d: node %d rejects", i+1, v)
			}
		}
	}
	// view(w3) and view(z2) coincide across the instances.
	for _, pair := range [][2]int{{0, 0}, {7, 6}} {
		mu1, err := l1.ViewOf(pair[0], 1)
		if err != nil {
			t.Fatal(err)
		}
		mu2, err := l2.ViewOf(pair[1], 1)
		if err != nil {
			t.Fatal(err)
		}
		if mu1.Key() != mu2.Key() {
			t.Errorf("views at P1 node %d and P2 node %d differ:\n%s\n%s",
				pair[0], pair[1], mu1.Key(), mu2.Key())
		}
	}
	ng, err := nbhd.BuildShardedCtx(context.Background(), obs.Scope{}, s.Decoder, nbhd.ShardedFromLabeled(l1, l2), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cyc := ng.OddCycle()
	if cyc == nil {
		t.Fatalf("no odd cycle in V(D,8) slice (size %d, edges %d)", ng.Size(), ng.EdgeCount())
	}
	if len(cyc)%2 == 0 {
		t.Fatalf("cycle %v even", cyc)
	}
	// The paper's construction yields a 13-cycle (7 + 6 edges).
	if len(cyc) != 13 {
		t.Logf("note: odd cycle has length %d (paper's construction gives 13)", len(cyc))
	}
}

func TestShatterLiteralHiding(t *testing.T) {
	// The literal decoder is also hiding (the gap is in soundness, not in
	// hiding): rebuild the pair with literal type-0 labels.
	s := ShatterLiteral()
	l1, l2 := ShatterHidingPair()
	relabel := func(l core.Labeled, vNode int) core.Labeled {
		labels := append([]string(nil), l.Labels...)
		labels[vNode] = ShatterPointLabelLiteral(5)
		return core.MustNewLabeled(l.Instance, labels)
	}
	l1, l2 = relabel(l1, 4), relabel(l2, 3)
	ng, err := nbhd.BuildShardedCtx(context.Background(), obs.Scope{}, s.Decoder, nbhd.ShardedFromLabeled(l1, l2), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ng.OddCycle() == nil {
		t.Error("literal decoder should also be hiding on the P8/P7 pair")
	}
}

func TestShatterDecoderRules(t *testing.T) {
	s := Shatter()
	// P5 = 0-1-2-3-4 with shatter point 2 (Id 3), components {0} and {4}.
	g := graph.Path(5)
	inst := core.NewInstance(g)
	good := []string{
		ShatterCompLabel(3, 1, 0),
		ShatterNeighborLabel(3, []int{0, 0}),
		ShatterPointLabel(3, []int{0, 0}),
		ShatterNeighborLabel(3, []int{0, 0}),
		ShatterCompLabel(3, 2, 0),
	}
	outs, err := core.Run(s.Decoder, core.MustNewLabeled(inst, good))
	if err != nil {
		t.Fatal(err)
	}
	for v, ok := range outs {
		if !ok {
			t.Errorf("node %d rejects the hand-built certificate", v)
		}
	}

	// Wrong identifier at the shatter point: it must reject.
	bad := append([]string(nil), good...)
	bad[2] = ShatterPointLabel(9, []int{0, 0})
	outs, err = core.Run(s.Decoder, core.MustNewLabeled(inst, bad))
	if err != nil {
		t.Fatal(err)
	}
	if outs[2] {
		t.Error("shatter point accepted a foreign identifier")
	}

	// Component color contradicting the vector: both endpoints of the
	// relation must reject.
	bad2 := append([]string(nil), good...)
	bad2[0] = ShatterCompLabel(3, 1, 1)
	outs, err = core.Run(s.Decoder, core.MustNewLabeled(inst, bad2))
	if err != nil {
		t.Fatal(err)
	}
	if outs[0] || outs[1] {
		t.Error("color/vector mismatch accepted")
	}
}

func TestShatterCertBitsShape(t *testing.T) {
	// Certificate size grows like O(#components + log id): spot-check the
	// accounting.
	small := shatterCertBits(ShatterNeighborLabel(3, []int{0, 1}))
	big := shatterCertBits(ShatterNeighborLabel(3, []int{0, 1, 0, 1, 0, 1}))
	if big <= small {
		t.Errorf("more components should cost more bits: %d vs %d", big, small)
	}
	low := shatterCertBits(ShatterCompLabel(2, 1, 0))
	high := shatterCertBits(ShatterCompLabel(1000, 1, 0))
	if high <= low {
		t.Errorf("larger identifiers should cost more bits: %d vs %d", high, low)
	}
}

func TestParseShatterCertErrors(t *testing.T) {
	bad := []string{
		"", "X", "S0:", "S0:0:", "S1:1", "S1:1:012", "S2:1:1", "S2:0:1:0",
		"S2:1:0:0", "S2:1:1:7", "S1:abc:00",
	}
	for _, l := range bad {
		if _, ok := parseShatterCert(l); ok {
			t.Errorf("parseShatterCert(%q) succeeded, want rejection", l)
		}
	}
}
