package decoders

import (
	"context"
	"math/rand"
	"testing"

	"hidinglcp/internal/core"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/graph/graphtest"
	"hidinglcp/internal/nbhd"
	"hidinglcp/internal/obs"
)

func TestFindWatermelonStructure(t *testing.T) {
	tests := []struct {
		name      string
		g         *graph.Graph
		wantPaths int
		wantErr   bool
	}{
		{"theta", graph.MustWatermelon([]int{2, 2, 2}), 3, false},
		{"two uneven paths", graph.MustWatermelon([]int{2, 4}), 2, false},
		{"plain path", graph.Path(6), 1, false},
		{"even cycle", graph.MustCycle(8), 2, false},
		{"odd cycle", graph.MustCycle(7), 2, false}, // structurally fine, just not bipartite
		{"star", graph.Star(4), 0, true},
		{"grid", graph.Grid(3, 3), 0, true},
		{"single edge", graph.Path(2), 0, true},
		{"disconnected", graphtest.DisjointUnion(graph.Path(3), graph.Path(3)), 0, true},
		{"k4", graph.Complete(4), 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v1, v2, paths, err := FindWatermelonStructure(tt.g)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, wantErr = %v", err, tt.wantErr)
			}
			if err != nil {
				return
			}
			if len(paths) != tt.wantPaths {
				t.Errorf("found %d paths, want %d", len(paths), tt.wantPaths)
			}
			for _, p := range paths {
				if p[0] != v1 || p[len(p)-1] != v2 {
					t.Errorf("path %v does not run v1..v2 (%d..%d)", p, v1, v2)
				}
				if len(p) < 3 {
					t.Errorf("path %v shorter than length 2", p)
				}
				for i := 0; i+1 < len(p); i++ {
					if !tt.g.HasEdge(p[i], p[i+1]) {
						t.Errorf("path %v uses non-edge", p)
					}
				}
			}
		})
	}
}

func TestWatermelonCompleteness(t *testing.T) {
	s := Watermelon()
	for _, paths := range [][]int{
		{2, 2}, {3, 3}, {2, 4}, {2, 2, 2}, {3, 5, 3}, {4, 2, 2, 4}, {5},
	} {
		g := graph.MustWatermelon(paths)
		if _, err := core.CheckCompleteness(s, core.NewInstance(g)); err != nil {
			t.Errorf("completeness on watermelon %v: %v", paths, err)
		}
	}
	// Cycles and plain paths are watermelons too.
	for _, g := range []*graph.Graph{graph.MustCycle(6), graph.MustCycle(8), graph.Path(7)} {
		if _, err := core.CheckCompleteness(s, core.NewInstance(g)); err != nil {
			t.Errorf("completeness on %v: %v", g, err)
		}
	}
}

func TestWatermelonCompletenessAllPortsTheta(t *testing.T) {
	s := Watermelon()
	g := graph.MustWatermelon([]int{2, 2, 2})
	graph.EnumPorts(g, func(pt *graph.Ports) bool {
		inst := core.Instance{G: g, Prt: pt, IDs: graph.SequentialIDs(g.N()), NBound: g.N()}
		if _, err := core.CheckCompleteness(s, inst); err != nil {
			t.Errorf("completeness under ports: %v", err)
			return false
		}
		return true
	})
}

func TestWatermelonProverRejects(t *testing.T) {
	s := Watermelon()
	if _, err := s.Prover.Certify(core.NewInstance(graph.MustWatermelon([]int{2, 3}))); err == nil {
		t.Error("prover certified a non-bipartite watermelon")
	}
	if _, err := s.Prover.Certify(core.NewInstance(graph.Grid(3, 3))); err == nil {
		t.Error("prover certified a grid")
	}
	if _, err := s.Prover.Certify(core.NewAnonymousInstance(graph.Path(5))); err == nil {
		t.Error("prover certified an anonymous instance")
	}
}

func melonFuzzGen(maxID int) func(int, *rand.Rand) string {
	return func(_ int, rng *rand.Rand) string {
		id1 := 1 + rng.Intn(maxID-1)
		id2 := id1 + 1 + rng.Intn(maxID-id1)
		switch rng.Intn(4) {
		case 0:
			return WatermelonEndpointLabel(id1, id2)
		case 1:
			return "nonsense"
		default:
			c1 := rng.Intn(2)
			return WatermelonPathLabel(id1, id2, 1+rng.Intn(3),
				1+rng.Intn(3), c1, 1+rng.Intn(3), 1-c1)
		}
	}
}

func TestWatermelonStrongSoundnessFuzz(t *testing.T) {
	s := Watermelon()
	rng := rand.New(rand.NewSource(19))
	for _, g := range []*graph.Graph{
		graph.MustCycle(5), graph.MustCycle(7), graph.Petersen(),
		graph.MustWatermelon([]int{2, 3}), graph.Complete(4), graph.Grid(3, 3),
	} {
		inst := core.NewInstance(g)
		if err := core.FuzzStrongSoundness(context.Background(), obs.Scope{}, s.Decoder, s.Promise.Lang, inst, 800, rng, melonFuzzGen(12), 1); err != nil {
			t.Errorf("fuzz on %v: %v", g, err)
		}
	}
}

// TestWatermelonOddWatermelonRejected drives the canonical adversarial
// case: a watermelon with paths of mismatched parity (an odd cycle through
// both endpoints). The "best effort" cheat 2-edge-colors each path from v1;
// the monochromaticity check at an endpoint must then fail.
func TestWatermelonOddWatermelonRejected(t *testing.T) {
	s := Watermelon()
	g := graph.MustWatermelon([]int{2, 3})
	inst := core.NewInstance(g)
	v1, v2, paths, err := FindWatermelonStructure(g)
	if err != nil {
		t.Fatal(err)
	}
	ids := inst.IDs
	id1, id2 := ids[v1], ids[v2]
	if id1 > id2 {
		id1, id2 = id2, id1
	}
	edgeColor := make(map[[2]int]int)
	for _, path := range paths {
		for i := 0; i+1 < len(path); i++ {
			edgeColor[normEdge(path[i], path[i+1])] = i % 2
		}
	}
	labels := make([]string, g.N())
	labels[v1] = WatermelonEndpointLabel(id1, id2)
	labels[v2] = WatermelonEndpointLabel(id1, id2)
	for pi, path := range paths {
		for _, u := range path[1 : len(path)-1] {
			var q, c [3]int
			for _, w := range g.Neighbors(u) {
				j := inst.Prt.MustPort(u, w)
				q[j] = inst.Prt.MustPort(w, u)
				c[j] = edgeColor[normEdge(u, w)]
			}
			labels[u] = WatermelonPathLabel(id1, id2, pi+1, q[1], c[1], q[2], c[2])
		}
	}
	outs, err := core.Run(s.Decoder, core.MustNewLabeled(inst, labels))
	if err != nil {
		t.Fatal(err)
	}
	if outs[v2] {
		t.Error("endpoint v2 accepted paths of mismatched parity (non-monochromatic edges)")
	}
	if err := core.CheckStrongSoundness(s.Decoder, s.Promise.Lang, core.MustNewLabeled(inst, labels)); err != nil {
		t.Errorf("strong soundness: %v", err)
	}
}

// TestWatermelonHiding reproduces the hiding part of Theorem 1.4 with the
// mirror-symmetric port assignment (see WatermelonHidingPair): the views of
// u1 and of u4/u5 coincide across the two identifier assignments, closing
// an odd 7-cycle in V(D, 8).
func TestWatermelonHiding(t *testing.T) {
	s := Watermelon()
	l1, l2, err := WatermelonHidingPair()
	if err != nil {
		t.Fatal(err)
	}
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
	// The paper's equalities, under the corrected ports:
	// view(u1, I1) = view(u1, I2) and view(u4, I1) = view(u5, I2).
	mu11, err := l1.ViewOf(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	mu12, err := l2.ViewOf(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mu11.Key() != mu12.Key() {
		t.Errorf("view(u1) differs across instances:\n%s\n%s", mu11.Key(), mu12.Key())
	}
	mu41, err := l1.ViewOf(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	mu52, err := l2.ViewOf(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mu41.Key() != mu52.Key() {
		t.Errorf("view(u4,I1) != view(u5,I2):\n%s\n%s", mu41.Key(), mu52.Key())
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
	if len(cyc) != 7 {
		t.Logf("note: odd cycle length %d (paper's construction gives 7)", len(cyc))
	}
}

func TestWatermelonHidingFamily(t *testing.T) {
	s := Watermelon()
	family, err := WatermelonHidingFamily()
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range family {
		all, err := core.AllAccept(s.Decoder, l)
		if err != nil {
			t.Fatal(err)
		}
		if !all {
			t.Fatalf("family instance not fully accepted: %v", l.G)
		}
	}
	ng, err := nbhd.BuildShardedCtx(context.Background(), obs.Scope{}, s.Decoder, nbhd.ShardedFromLabeled(family...), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ng.OddCycle() == nil {
		t.Error("no odd cycle over the full hiding family")
	}
}

func TestWatermelonLabelRoundTrip(t *testing.T) {
	l := WatermelonPathLabel(1, 8, 3, 2, 0, 1, 1)
	c, ok := parseMelonCert(l)
	if !ok {
		t.Fatalf("parseMelonCert(%q) rejected", l)
	}
	if c.typ != 2 || c.id1 != 1 || c.id2 != 8 || c.path != 3 {
		t.Errorf("header lost: %+v", c)
	}
	if c.farPort[1] != 2 || c.color[1] != 0 || c.farPort[2] != 1 || c.color[2] != 1 {
		t.Errorf("entries lost: %+v", c)
	}
	e := WatermelonEndpointLabel(2, 9)
	ce, ok := parseMelonCert(e)
	if !ok {
		t.Fatalf("parseMelonCert(%q) rejected", e)
	}
	if ce.typ != 1 || ce.id1 != 2 || ce.id2 != 9 {
		t.Errorf("endpoint header lost: %+v", ce)
	}
}

func TestParseMelonCertErrors(t *testing.T) {
	bad := []string{
		"", "W1:5:3", "W1:5", "W1:0:3", "W2:1:8:1:1,0:1,0", // equal colors
		"W2:1:8:0:1,0:1,1", "W2:1:8:1:0,0:1,1", "W2:1:8:1:1,2:1,0",
		"W2:1:8:1:1,0", "junk", "W3:1:2",
	}
	for _, l := range bad {
		if _, ok := parseMelonCert(l); ok {
			t.Errorf("parseMelonCert(%q) succeeded, want rejection", l)
		}
	}
}

func TestWatermelonCertBitsLogShape(t *testing.T) {
	small := watermelonCertBits(WatermelonPathLabel(1, 8, 1, 2, 0, 1, 1))
	big := watermelonCertBits(WatermelonPathLabel(1, 1024, 1, 2, 0, 1, 1))
	if big <= small {
		t.Errorf("larger ids should cost more bits: %d vs %d", big, small)
	}
	// Bits grow logarithmically: id 1024 costs ~10 more than id 8.
	if big-small > 16 {
		t.Errorf("growth too fast: %d vs %d", big, small)
	}
}
