package decoders

import (
	"fmt"
	"math/rand"
	"strings"

	"hidinglcp/internal/core"
	"hidinglcp/internal/graph"
)

// This file provides the concrete instance families behind the paper's
// hiding proofs: the small-graph slice for Lemma 4.1 (Figs. 3/4), the
// two-phase cycle family for Lemma 4.2 (Figs. 5/6), the P8/P7 pair from the
// proof of Theorem 1.3, and the relabeled-path family from the proof of
// Theorem 1.4.

// DegOneFamily returns every connected bipartite graph with minimum degree
// one on 2..maxN labeled nodes, as anonymous instances with every port
// assignment. Together with ShardedAllLabelings over DegOneAlphabet this is
// the exhaustive Lemma 3.1 slice of V(D, maxN) for the DegreeOne scheme
// restricted to connected instances.
func DegOneFamily(maxN int) []core.Instance {
	var out []core.Instance
	for n := 2; n <= maxN; n++ {
		graph.EnumConnectedGraphs(n, func(g *graph.Graph) bool {
			if !g.IsBipartite() || g.MinDegree() != 1 {
				return true
			}
			gc := g.Clone()
			graph.EnumPorts(gc, func(pt *graph.Ports) bool {
				out = append(out, core.Instance{G: gc, Prt: pt, NBound: maxN})
				return true
			})
			return true
		})
	}
	return out
}

// EvenCycleFamily returns the labeled yes-instances used for the Lemma 4.2
// hiding argument: each even cycle length in lens, under every port
// assignment, certified by the prover in both 2-edge-coloring phases.
func EvenCycleFamily(lens ...int) ([]core.Labeled, error) {
	scheme := EvenCycle()
	var out []core.Labeled
	for _, n := range lens {
		if n < 4 || n%2 != 0 {
			return nil, fmt.Errorf("even cycle length %d invalid", n)
		}
		g := graph.MustCycle(n)
		var enumErr error
		graph.EnumPorts(g, func(pt *graph.Ports) bool {
			inst := core.Instance{G: g, Prt: pt, NBound: n}
			labels, err := scheme.Prover.Certify(inst)
			if err != nil {
				enumErr = err
				return false
			}
			out = append(out,
				core.MustNewLabeled(inst, labels),
				core.MustNewLabeled(inst, FlipCycleLabelColors(labels)))
			return true
		})
		if enumErr != nil {
			return nil, enumErr
		}
	}
	return out, nil
}

// FlipCycleLabelColors returns the labeling with both edge colors inverted
// in every EvenCycle certificate — the other proper 2-edge-coloring of the
// same cycle.
func FlipCycleLabelColors(labels []string) []string {
	out := make([]string, len(labels))
	for i, l := range labels {
		c, err := parseCycleCert(l)
		if err != nil {
			out[i] = l
			continue
		}
		out[i] = EvenCycleLabel(c.farPort[1], 1-c.color[1], c.farPort[2], 1-c.color[2])
	}
	return out
}

// FlipWatermelonLabelColors inverts both edge colors in every type-2
// watermelon certificate, yielding the opposite 2-edge-coloring phase.
func FlipWatermelonLabelColors(labels []string) []string {
	out := make([]string, len(labels))
	for i, l := range labels {
		c, err := parseMelonCert(l)
		if err != nil || c.typ != 2 {
			out[i] = l
			continue
		}
		out[i] = WatermelonPathLabel(c.id1, c.id2, c.path,
			c.farPort[1], 1-c.color[1], c.farPort[2], 1-c.color[2])
	}
	return out
}

// ShatterHidingPair builds the two labeled instances from the hiding part
// of Theorem 1.3's proof: the path P1 = (w3, w2, w1, u1, v, u2, z1, z2) with
// shatter point v and component colors (0, 0), and the path
// P2 = (w3, w2, u1, v, u2, z1, z2) — one w-node shorter — with component
// colors (1, 0), sharing identifiers and ports on the common nodes. The
// views of w3 and z2 coincide across the pair while their distance has odd
// parity in P1 and even parity in P2, which puts an odd cycle into V(D, 8).
func ShatterHidingPair() (core.Labeled, core.Labeled) {
	const nBound = 8
	// P1: nodes 0..7 along the path; v is node 4 with identifier 5.
	g1 := graph.Path(8)
	inst1 := core.Instance{
		G:      g1,
		Prt:    graph.DefaultPorts(g1),
		IDs:    graph.IDs{1, 2, 3, 4, 5, 6, 7, 8},
		NBound: nBound,
	}
	const vID = 5
	labels1 := []string{
		ShatterCompLabel(vID, 1, 0),            // w3
		ShatterCompLabel(vID, 1, 1),            // w2
		ShatterCompLabel(vID, 1, 0),            // w1 (faces u1: colors_1 = 0)
		ShatterNeighborLabel(vID, []int{0, 0}), // u1
		ShatterPointLabel(vID, []int{0, 0}),    // v
		ShatterNeighborLabel(vID, []int{0, 0}), // u2
		ShatterCompLabel(vID, 2, 0),            // z1 (faces u2: colors_2 = 0)
		ShatterCompLabel(vID, 2, 1),            // z2
	}
	l1 := core.MustNewLabeled(inst1, labels1)

	// P2: node w1 removed; identifiers restricted.
	g2 := graph.Path(7)
	inst2 := core.Instance{
		G:      g2,
		Prt:    graph.DefaultPorts(g2),
		IDs:    graph.IDs{1, 2, 4, 5, 6, 7, 8},
		NBound: nBound,
	}
	labels2 := []string{
		ShatterCompLabel(vID, 1, 0),            // w3
		ShatterCompLabel(vID, 1, 1),            // w2 (faces u1: colors_1 = 1)
		ShatterNeighborLabel(vID, []int{1, 0}), // u1
		ShatterPointLabel(vID, []int{1, 0}),    // v
		ShatterNeighborLabel(vID, []int{1, 0}), // u2
		ShatterCompLabel(vID, 2, 0),            // z1
		ShatterCompLabel(vID, 2, 1),            // z2
	}
	l2 := core.MustNewLabeled(inst2, labels2)
	return l1, l2
}

// WatermelonHidingPair builds the two labeled instances behind the hiding
// part of Theorem 1.4's proof: the path P8 = u1...u8 under the identity
// identifier assignment id1 and under the middle-reversed assignment id2 of
// the paper (id2(u_i) = 9-i for i in 3..6), with identical certificates.
//
// DEVIATION FROM THE PAPER: the proof fixes the port assignment "port 1 to
// u_{i-1} and port 2 to u_{i+1}", but under that assignment the claimed
// equality view(u4, I1) = view(u5, I2) fails — u4's port 1 leads to the
// identifier-3 node in I1 while u5's port 1 leads to the identifier-5 node
// in I2. The construction goes through verbatim once the port assignment is
// made mirror-symmetric about the middle of the path (port 1 toward u1 on
// the left half, port 1 toward u8 on the right half), which is what we use:
// then view(u1, I1) = view(u1, I2) and view(u4, I1) = view(u5, I2), and the
// two lifted view paths (3 and 4 edges) close an odd 7-cycle in V(D, 8).
func WatermelonHidingPair() (core.Labeled, core.Labeled, error) {
	scheme := Watermelon()
	const nBound = 8
	p8 := graph.Path(8)
	// Mirror-symmetric ports: nodes u2..u4 (indices 1..3) point port 1 at
	// their predecessor; nodes u5..u7 (indices 4..6) point port 1 at their
	// successor. Endpoints have a single port.
	perm := [][]int{{0}, {0, 1}, {0, 1}, {0, 1}, {1, 0}, {1, 0}, {1, 0}, {0}}
	prt, err := graph.PortsFromPerm(p8, perm)
	if err != nil {
		return core.Labeled{}, core.Labeled{}, err
	}
	id1 := graph.IDs{1, 2, 3, 4, 5, 6, 7, 8}
	id2 := graph.IDs{1, 2, 6, 5, 4, 3, 7, 8}

	inst1 := core.Instance{G: p8, Prt: prt, IDs: id1, NBound: nBound}
	labels, err := scheme.Prover.Certify(inst1)
	if err != nil {
		return core.Labeled{}, core.Labeled{}, err
	}
	inst2 := core.Instance{G: p8, Prt: prt, IDs: id2, NBound: nBound}
	// The certificate does not mention interior identifiers, so the same
	// labeling is accepted on both instances.
	return core.MustNewLabeled(inst1, labels), core.MustNewLabeled(inst2, labels), nil
}

// WatermelonHidingFamily builds a broader labeled yes-instance family for
// the Theorem 1.4 hiding argument: the WatermelonHidingPair plus even
// cycles C6 and C8 decomposed as two-path watermelons at every rotation of
// the identifier assignment, each in both 2-edge-coloring phases.
func WatermelonHidingFamily() ([]core.Labeled, error) {
	scheme := Watermelon()
	var out []core.Labeled
	const nBound = 8

	l1, l2, err := WatermelonHidingPair()
	if err != nil {
		return nil, err
	}
	out = append(out, l1, l2,
		core.MustNewLabeled(l1.Instance, FlipWatermelonLabelColors(l1.Labels)),
		core.MustNewLabeled(l2.Instance, FlipWatermelonLabelColors(l2.Labels)))

	for _, n := range []int{6, 8} {
		cyc := graph.MustCycle(n)
		for shift := 0; shift < n; shift++ {
			ids := make(graph.IDs, n)
			for v := 0; v < n; v++ {
				ids[v] = (v+shift)%n + 1
			}
			inst := core.Instance{G: cyc, Prt: graph.DefaultPorts(cyc), IDs: ids, NBound: nBound}
			labels, err := scheme.Prover.Certify(inst)
			if err != nil {
				return nil, err
			}
			out = append(out,
				core.MustNewLabeled(inst, labels),
				core.MustNewLabeled(inst, FlipWatermelonLabelColors(labels)))
		}
	}
	return out, nil
}

// MalformedShatterLabels returns a generator of random shatter-scheme
// labels (valid and invalid mixtures) for fuzzing with
// core.FuzzStrongSoundnessParallelCtx, with identifiers bounded by maxID and
// component numbers by maxComp.
func MalformedShatterLabels(maxID, maxComp int) func(node int, rng *rand.Rand) string {
	return func(_ int, rng *rand.Rand) string {
		switch rng.Intn(5) {
		case 0:
			vec := make([]int, 1+rng.Intn(3))
			for i := range vec {
				vec[i] = rng.Intn(2)
			}
			return ShatterPointLabel(1+rng.Intn(maxID), vec)
		case 1:
			vec := make([]int, 1+rng.Intn(3))
			for i := range vec {
				vec[i] = rng.Intn(2)
			}
			return ShatterNeighborLabel(1+rng.Intn(maxID), vec)
		case 2, 3:
			return ShatterCompLabel(1+rng.Intn(maxID), 1+rng.Intn(maxComp), rng.Intn(2))
		default:
			return "junk" + strings.Repeat("!", rng.Intn(3))
		}
	}
}
