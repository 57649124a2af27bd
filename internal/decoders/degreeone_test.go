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

func TestDegreeOneCompleteness(t *testing.T) {
	s := DegreeOne()
	// Every connected bipartite graph with δ = 1 on up to 6 nodes.
	for n := 2; n <= 6; n++ {
		graph.EnumConnectedGraphs(n, func(g *graph.Graph) bool {
			if !g.IsBipartite() || g.MinDegree() != 1 {
				return true
			}
			if _, err := core.CheckCompleteness(s, core.NewAnonymousInstance(g.Clone())); err != nil {
				t.Errorf("completeness: %v", err)
				return false
			}
			return true
		})
	}
}

func TestDegreeOneCompletenessDisconnected(t *testing.T) {
	// δ(G) = 1 globally; a second component without degree-1 nodes is fine.
	s := DegreeOne()
	g := graphtest.DisjointUnion(graph.Path(2), graph.MustCycle(4))
	if _, err := core.CheckCompleteness(s, core.NewAnonymousInstance(g)); err != nil {
		t.Errorf("completeness on disconnected instance: %v", err)
	}
}

func TestDegreeOneProverRejects(t *testing.T) {
	s := DegreeOne()
	if _, err := s.Prover.Certify(core.NewAnonymousInstance(graph.MustCycle(5))); err == nil {
		t.Error("prover certified an odd cycle")
	}
	if _, err := s.Prover.Certify(core.NewAnonymousInstance(graph.MustCycle(4))); err == nil {
		t.Error("prover certified a graph without degree-1 nodes")
	}
}

func TestDegreeOneStrongSoundnessExhaustive(t *testing.T) {
	// Every connected graph on up to 4 nodes (including non-bipartite ones),
	// every port assignment, every labeling over the full alphabet.
	s := DegreeOne()
	for n := 2; n <= 4; n++ {
		graph.EnumConnectedGraphs(n, func(g *graph.Graph) bool {
			gc := g.Clone()
			graph.EnumPorts(gc, func(pt *graph.Ports) bool {
				inst := core.Instance{G: gc, Prt: pt, NBound: n}
				if err := core.ExhaustiveStrongSoundnessParallelCtx(context.Background(), obs.Scope{}, s.Decoder, s.Promise.Lang, inst, DegOneAlphabet(), 1, 1); err != nil {
					t.Errorf("strong soundness: %v", err)
					return false
				}
				return true
			})
			return true
		})
	}
}

func TestDegreeOneStrongSoundnessExhaustiveC5(t *testing.T) {
	// The canonical no-instance: all 4^5 labelings of the 5-cycle.
	s := DegreeOne()
	inst := core.NewAnonymousInstance(graph.MustCycle(5))
	if err := core.ExhaustiveStrongSoundnessParallelCtx(context.Background(), obs.Scope{}, s.Decoder, s.Promise.Lang, inst, DegOneAlphabet(), 1, 1); err != nil {
		t.Errorf("strong soundness on C5: %v", err)
	}
}

func TestDegreeOneStrongSoundnessFuzz(t *testing.T) {
	s := DegreeOne()
	rng := rand.New(rand.NewSource(11))
	gen := func(_ int, rng *rand.Rand) string {
		return DegOneAlphabet()[rng.Intn(4)]
	}
	for _, g := range []*graph.Graph{
		graph.Petersen(), graph.Complete(5), graph.MustWatermelon([]int{2, 3}),
		graph.Grid(3, 3),
	} {
		inst := core.NewAnonymousInstance(g)
		if err := core.FuzzStrongSoundness(context.Background(), obs.Scope{}, s.Decoder, s.Promise.Lang, inst, 500, rng, gen, 1); err != nil {
			t.Errorf("fuzz on %v: %v", g, err)
		}
	}
}

// TestDegreeOneHiding reproduces Figs. 3/4: the exhaustive slice of V(D, 4)
// over connected graphs of the promise class contains an odd cycle, so by
// Lemma 3.2 the scheme hides the 2-coloring.
func TestDegreeOneHiding(t *testing.T) {
	s := DegreeOne()
	insts := DegOneFamily(4)
	if len(insts) == 0 {
		t.Fatal("empty family")
	}
	ng, err := nbhd.BuildShardedCtx(context.Background(), obs.Scope{}, s.Decoder, nbhd.ShardedAllLabelings(DegOneAlphabet(), insts...), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cyc := ng.OddCycle()
	if cyc == nil {
		t.Fatalf("no odd cycle in V(D,4) slice (size %d, edges %d): scheme should hide", ng.Size(), ng.EdgeCount())
	}
	if len(cyc)%2 == 0 {
		t.Fatalf("cycle %v has even length", cyc)
	}
	// No extraction decoder can exist at this size.
	if _, err := nbhd.NewExtractor(ng, 2, true); err == nil {
		t.Error("extractor built despite hiding")
	}
}

// TestDegreeOneHiddenFraction verifies the scheme hides the coloring at the
// pendant node: on a certified star, the best view-consistent coloring still
// fails somewhere (the hidden node and its neighbor are forced into
// conflict... precisely, the report must show at least one bad edge is NOT
// forced — hiding in this scheme is per-node, so we check the hidden node's
// view admits both colors across the slice instead).
func TestDegreeOneHiddenFraction(t *testing.T) {
	s := DegreeOne()
	// On a single labeled path, all views are distinct, so a view-consistent
	// coloring with zero conflicts exists; per-instance conflict counting
	// cannot certify hiding here (hiding needs the cross-instance argument
	// of Lemma 3.2, tested above). We assert exactly that: zero forced
	// conflicts per instance...
	inst := core.NewAnonymousInstance(graph.Path(4))
	labels, err := s.Prover.Certify(inst)
	if err != nil {
		t.Fatal(err)
	}
	report, err := nbhd.MinExtractionConflicts(s.Decoder, core.MustNewLabeled(inst, labels), 2)
	if err != nil {
		t.Fatal(err)
	}
	if report.MinBadEdges != 0 {
		t.Errorf("single-instance conflicts = %+v, want 0 (hiding is cross-instance)", report)
	}
}

func TestDegreeOneAnonymity(t *testing.T) {
	s := DegreeOne()
	inst := core.NewInstance(graph.Path(4))
	labels, err := s.Prover.Certify(inst)
	if err != nil {
		t.Fatal(err)
	}
	l := core.MustNewLabeled(inst, labels)
	idSets := []graph.IDs{{1, 2, 3, 4}, {4, 3, 2, 1}, {10, 30, 20, 40}}
	bounds := []int{4, 4, 40}
	if err := core.CheckAnonymous(s.Decoder, l, idSets, bounds); err != nil {
		t.Errorf("anonymity: %v", err)
	}
}

func TestDegreeOneDecoderRules(t *testing.T) {
	// Hand-checked accept/reject cases on P4 with labels indexed 0..3.
	s := DegreeOne()
	inst := core.NewAnonymousInstance(graph.Path(4))
	tests := []struct {
		name   string
		labels []string
		want   []bool
	}{
		{
			name:   "prover labeling",
			labels: []string{DegOneBottom, DegOneTop, DegOneColor0, DegOneColor1},
			want:   []bool{true, true, true, true},
		},
		{
			name: "bottom with wrong neighbor",
			// Node 0 (⊥) rejects: its neighbor is not ⊤. Node 1 (colored)
			// also rejects: a colored node tolerates only colored or ⊤
			// neighbors, never ⊥.
			labels: []string{DegOneBottom, DegOneColor0, DegOneColor1, DegOneColor0},
			want:   []bool{false, false, true, true},
		},
		{
			name:   "interior bottom rejected",
			labels: []string{DegOneColor0, DegOneBottom, DegOneTop, DegOneColor1},
			// Node 1 has degree 2 -> rejects; node 0 has a ⊥ neighbor ->
			// rejects; node 2 (⊤) has exactly one ⊥ and one colored -> holds;
			// node 3 neighbors ⊤ only -> accepts.
			want: []bool{false, false, true, true},
		},
		{
			name:   "two colors proper, no hidden pair",
			labels: []string{DegOneColor0, DegOneColor1, DegOneColor0, DegOneColor1},
			want:   []bool{true, true, true, true},
		},
		{
			name:   "monochromatic edge rejected",
			labels: []string{DegOneColor0, DegOneColor0, DegOneColor1, DegOneColor0},
			want:   []bool{false, false, true, true},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			outs, err := core.Run(s.Decoder, core.MustNewLabeled(inst, tt.labels))
			if err != nil {
				t.Fatal(err)
			}
			for v := range outs {
				if outs[v] != tt.want[v] {
					t.Errorf("node %d: got %v, want %v (labels %v)", v, outs[v], tt.want[v], tt.labels)
				}
			}
		})
	}
}

func TestDegreeOneTopCommonColor(t *testing.T) {
	// A ⊤ node whose colored neighbors disagree must reject (the common-β
	// requirement that makes the strong-soundness parity argument work).
	s := DegreeOne()
	g := graph.Star(4) // center 0, leaves 1..3
	inst := core.NewAnonymousInstance(g)
	labels := []string{DegOneTop, DegOneBottom, DegOneColor0, DegOneColor1}
	outs, err := core.Run(s.Decoder, core.MustNewLabeled(inst, labels))
	if err != nil {
		t.Fatal(err)
	}
	if outs[0] {
		t.Error("⊤ center accepted neighbors with two different colors")
	}
	labels2 := []string{DegOneTop, DegOneBottom, DegOneColor0, DegOneColor0}
	outs, err = core.Run(s.Decoder, core.MustNewLabeled(inst, labels2))
	if err != nil {
		t.Fatal(err)
	}
	if !outs[0] {
		t.Error("⊤ center rejected a valid common-color neighborhood")
	}
}

func TestDegreeOneCertBits(t *testing.T) {
	s := DegreeOne()
	for _, l := range DegOneAlphabet() {
		if got := s.LabelBits(l); got != 2 {
			t.Errorf("LabelBits(%q) = %d, want 2", l, got)
		}
	}
}
