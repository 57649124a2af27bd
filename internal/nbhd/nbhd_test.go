package nbhd

import (
	"context"
	"errors"
	"slices"
	"strconv"
	"sync"
	"testing"

	"hidinglcp/internal/core"
	"hidinglcp/internal/decoders"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/obs"
	"hidinglcp/internal/view"
)

// revealDecoder is the textbook revealing 2-coloring LCP used as a known
// NON-hiding reference point.
func revealDecoder() core.Decoder {
	return core.NewDecoder(1, true, func(mu *view.View) bool {
		own := mu.Labels[view.Center]
		if own != "0" && own != "1" {
			return false
		}
		for _, w := range mu.Ports.Rows[view.Center] {
			if w < 0 {
				continue
			}
			if mu.Labels[w] == own || (mu.Labels[w] != "0" && mu.Labels[w] != "1") {
				return false
			}
		}
		return true
	})
}

type revealProver struct{}

func (revealProver) Certify(inst core.Instance) ([]string, error) {
	color, ok := inst.G.TwoColoring()
	if !ok {
		return nil, errors.New("not bipartite")
	}
	labels := make([]string, inst.G.N())
	for v, c := range color {
		labels[v] = strconv.Itoa(c)
	}
	return labels, nil
}

func alwaysAccept() core.Decoder {
	return core.NewDecoder(1, true, func(*view.View) bool { return true })
}

func TestBuildRevealOnEdge(t *testing.T) {
	inst := core.NewAnonymousInstance(graph.Path(2))
	ng, err := build(revealDecoder(), allLabelings([]string{"0", "1"}, inst))
	if err != nil {
		t.Fatal(err)
	}
	// Accepting views: (center 0, neighbor 1) and (center 1, neighbor 0).
	if ng.Size() != 2 {
		t.Fatalf("Size = %d, want 2", ng.Size())
	}
	if ng.EdgeCount() != 1 {
		t.Errorf("EdgeCount = %d, want 1", ng.EdgeCount())
	}
	if ng.LoopCount() != 0 {
		t.Errorf("LoopCount = %d, want 0", ng.LoopCount())
	}
	if ng.Hiding() {
		t.Error("revealing decoder reported hiding on exhaustive P2 slice")
	}
	if g := ng.OddGirth(); g != 0 {
		t.Errorf("OddGirth = %d on a bipartite slice, want 0", g)
	}
	if !ng.IsKColorable(2) {
		t.Error("V(D,2) of the revealing decoder should be 2-colorable")
	}
}

func TestBuildAlwaysAcceptSelfLoop(t *testing.T) {
	inst := core.NewAnonymousInstance(graph.Path(2))
	ng, err := build(alwaysAccept(), allLabelings([]string{"x"}, inst))
	if err != nil {
		t.Fatal(err)
	}
	// Both endpoints of P2 have the identical anonymized view, so the one
	// accepting view is self-looped.
	if ng.Size() != 1 {
		t.Fatalf("Size = %d, want 1", ng.Size())
	}
	if ng.LoopCount() != 1 {
		t.Fatalf("LoopCount = %d, want 1", ng.LoopCount())
	}
	cyc := ng.OddCycle()
	if len(cyc) != 1 {
		t.Fatalf("OddCycle = %v, want single looped view", cyc)
	}
	if !ng.HasLoop(cyc[0]) {
		t.Error("odd cycle node is not the looped view")
	}
	if g := ng.OddGirth(); g != 1 {
		t.Errorf("OddGirth = %d with a self-loop, want 1", g)
	}
	if ng.IsKColorable(99) {
		t.Error("looped view should never be colorable")
	}
	if !ng.Hiding() {
		t.Error("self-loop should imply hiding")
	}
}

// TestAbsorbKeepsOnlyAcceptedEdges pins the builders' edge filter: a
// one-worker build accumulates exactly the edges and loops that assemble
// keeps. All but one case reject some classes, so the filter has pairs to
// drop; the revealing decoder's "2"-labeled P2 endpoints share a rejected,
// self-looped view, and always-accept keeps its loop. assemble itself no
// longer filters: a pair with a rejected endpoint is an error.
func TestAbsorbKeepsOnlyAcceptedEdges(t *testing.T) {
	cases := []struct {
		name    string
		d       core.Decoder
		se      ShardedEnumerator
		rejects bool // some class is rejected
	}{
		{"reveal-P2-P3", revealDecoder(), ShardedAllLabelings([]string{"0", "1", "2"},
			core.NewAnonymousInstance(graph.Path(2)), core.NewAnonymousInstance(graph.Path(3))), true},
		{"always-accept-P2", alwaysAccept(), ShardedAllLabelings([]string{"x"}, core.NewAnonymousInstance(graph.Path(2))), false},
		{"degree-one-n4", decoders.DegreeOne().Decoder, ShardedAllLabelings(decoders.DegOneAlphabet(), decoders.DegOneFamily(4)...), true},
		{"E15-k3", decoders.DegreeOneK(3).Decoder, ShardedAllLabelings(decoders.DegOneKAlphabet(3), e15Slice()...), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := view.NewInterner()
			b := newBuilder(c.d, core.NewMemoDecoder(c.d, in), in, "test")
			if err := c.se.Sequential()(func(l core.Labeled) bool {
				b.absorb(l)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			edges := b.edges.len()
			accepting, loops, pairs := mergeBuilders([]*builder{b})
			ng, err := assemble(in, accepting, loops, pairs)
			if err != nil {
				t.Fatal(err)
			}
			if rejected := ng.Size() < in.Len(); rejected != c.rejects {
				t.Fatalf("%d of %d classes accept, want rejections %v", ng.Size(), in.Len(), c.rejects)
			}
			if edges != ng.EdgeCount() {
				t.Errorf("builder accumulated %d edges, V(D,n) has %d", edges, ng.EdgeCount())
			}
			for h, lo := range b.loops {
				i := ng.hidx[h]
				if want := i >= 0 && ng.HasLoop(i); lo != want {
					t.Errorf("class %d: builder loop %v, V(D,n) loop %v", h, lo, want)
				}
			}
			if c.rejects {
				bad := packPair(view.Handle(slices.Index(accepting, true)), view.Handle(slices.Index(accepting, false)))
				if _, err := assemble(in, accepting, loops, []uint64{bad}); err == nil {
					t.Error("assemble took an edge with a rejected endpoint")
				}
			}
		})
	}
}

func TestBuildProverLabeled(t *testing.T) {
	s := core.Scheme{
		Name:    "reveal",
		Decoder: revealDecoder(),
		Prover:  revealProver{},
	}
	insts := []core.Instance{
		core.NewAnonymousInstance(graph.Path(3)),
		core.NewAnonymousInstance(graph.MustCycle(4)),
	}
	ng, err := build(s.Decoder, proverLabeled(s, insts...))
	if err != nil {
		t.Fatal(err)
	}
	if ng.Size() == 0 {
		t.Fatal("no accepting views from prover-labeled yes-instances")
	}
	if ng.Hiding() {
		t.Error("revealing decoder's prover slice should be bipartite")
	}
}

func TestProverLabeledRejectsNoInstance(t *testing.T) {
	s := core.Scheme{Name: "reveal", Decoder: revealDecoder(), Prover: revealProver{}}
	_, err := build(s.Decoder, proverLabeled(s, core.NewAnonymousInstance(graph.MustCycle(3))))
	if err == nil {
		t.Error("prover-labeled enumerator accepted a no-instance")
	}
}

func TestFromLabeledValidates(t *testing.T) {
	bad := core.Labeled{Instance: core.Instance{}, Labels: nil}
	_, err := build(alwaysAccept(), fromLabeled(bad))
	if err == nil {
		t.Error("invalid instance accepted")
	}
}

func TestChain(t *testing.T) {
	instA := core.NewAnonymousInstance(graph.Path(2))
	instB := core.NewAnonymousInstance(graph.Path(3))
	enum := chain(
		allLabelings([]string{"0", "1"}, instA),
		allLabelings([]string{"0", "1"}, instB),
	)
	count := 0
	if err := enum(func(core.Labeled) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 4+8 {
		t.Errorf("chained enumeration yielded %d, want 12", count)
	}
	// Early stop propagates.
	count = 0
	if err := enum(func(core.Labeled) bool {
		count++
		return count < 5
	}); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("early stop after %d, want 5", count)
	}
}

func TestAllPortsAllLabelings(t *testing.T) {
	inst := core.NewAnonymousInstance(graph.Path(3))
	enum := allPortsAllLabelings([]string{"a"}, inst)
	count := 0
	if err := enum(func(core.Labeled) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	// 2 port assignments x 1 labeling.
	if count != 2 {
		t.Errorf("yielded %d, want 2", count)
	}
}

func TestClassInstances(t *testing.T) {
	gs := []*graph.Graph{graph.Path(2), graph.MustCycle(3), graph.Path(4)}
	insts := ClassInstances(gs, (*graph.Graph).IsBipartite)
	if len(insts) != 2 {
		t.Errorf("filtered to %d instances, want 2", len(insts))
	}
	all := ClassInstances(gs, nil)
	if len(all) != 3 {
		t.Errorf("unfiltered = %d, want 3", len(all))
	}
}

func TestExtractorRoundTrip(t *testing.T) {
	// Build V(D, n) of the revealing decoder over paths and even cycles,
	// then extract a proper 2-coloring from a fresh accepted instance.
	s := core.Scheme{Name: "reveal", Decoder: revealDecoder(), Prover: revealProver{}}
	family := []core.Instance{
		core.NewAnonymousInstance(graph.Path(2)),
		core.NewAnonymousInstance(graph.Path(3)),
		core.NewAnonymousInstance(graph.Path(4)),
		core.NewAnonymousInstance(graph.MustCycle(4)),
		core.NewAnonymousInstance(graph.MustCycle(6)),
	}
	ng, err := build(s.Decoder, allLabelings([]string{"0", "1"}, family...))
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExtractor(ng, 2, true)
	if err != nil {
		t.Fatalf("extractor: %v (revealing decoder must not be hiding)", err)
	}
	target := core.NewAnonymousInstance(graph.MustCycle(6))
	labels, err := s.Prover.Certify(target)
	if err != nil {
		t.Fatal(err)
	}
	l := core.MustNewLabeled(target, labels)
	witness, err := ex.ExtractWitness(l, 1)
	if err != nil {
		t.Fatalf("ExtractWitness: %v", err)
	}
	if !target.G.IsProperColoring(witness) {
		t.Errorf("extracted witness %v is not a proper coloring", witness)
	}
}

func TestExtractorFailsWhenHiding(t *testing.T) {
	inst := core.NewAnonymousInstance(graph.Path(2))
	ng, err := build(alwaysAccept(), allLabelings([]string{"x"}, inst))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewExtractor(ng, 2, true); err == nil {
		t.Error("extractor built from a non-2-colorable neighborhood graph")
	}
}

func TestExtractorUnknownView(t *testing.T) {
	inst := core.NewAnonymousInstance(graph.Path(2))
	ng, err := build(revealDecoder(), allLabelings([]string{"0", "1"}, inst))
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExtractor(ng, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	// A view from a larger graph was never enumerated.
	big := core.NewAnonymousInstance(graph.Path(5))
	l := core.MustNewLabeled(big, []string{"0", "1", "0", "1", "0"})
	if _, err := ex.ExtractWitness(l, 1); err == nil {
		t.Error("extraction from un-enumerated views succeeded")
	}
}

func TestIndexOfMissing(t *testing.T) {
	inst := core.NewAnonymousInstance(graph.Path(2))
	ng, err := build(revealDecoder(), allLabelings([]string{"0", "1"}, inst))
	if err != nil {
		t.Fatal(err)
	}
	// A view of a longer path is no node of this slice.
	p3 := graph.Path(3)
	other := view.MustExtract(p3, graph.DefaultPorts(p3), nil, []string{"0", "1", "0"}, 3, 1, 1)
	if got := ng.IndexOfView(other); got != -1 {
		t.Errorf("IndexOfView(non-member) = %d, want -1", got)
	}
	if ng.ViewAt(0) == nil {
		t.Error("ViewAt(0) = nil")
	}
}

func TestMinExtractionConflictsBipartite(t *testing.T) {
	// Reveal-certified P3: an extractor restricted to views can 2-color it
	// with zero conflicts.
	inst := core.NewAnonymousInstance(graph.Path(3))
	l := core.MustNewLabeled(inst, []string{"0", "1", "0"})
	report, err := MinExtractionConflicts(revealDecoder(), l, 2)
	if err != nil {
		t.Fatal(err)
	}
	if report.MinBadEdges != 0 || report.MinFailNodes != 0 {
		t.Errorf("report = %+v, want zero conflicts", report)
	}
	if report.DistinctViews < 2 {
		t.Errorf("DistinctViews = %d, want >= 2", report.DistinctViews)
	}
}

func TestMinExtractionConflictsTriangle(t *testing.T) {
	// No assignment 2-colors a triangle: at least one bad edge, at least two
	// failing nodes.
	inst := core.NewAnonymousInstance(graph.MustCycle(3))
	l := core.MustNewLabeled(inst, []string{"x", "x", "x"})
	report, err := MinExtractionConflicts(alwaysAccept(), l, 2)
	if err != nil {
		t.Fatal(err)
	}
	if report.MinBadEdges < 1 {
		t.Errorf("MinBadEdges = %d, want >= 1", report.MinBadEdges)
	}
	if report.MinFailNodes < 2 {
		t.Errorf("MinFailNodes = %d, want >= 2", report.MinFailNodes)
	}
	if report.FailFraction < 0.5 {
		t.Errorf("FailFraction = %f, want >= 0.5", report.FailFraction)
	}
}

func TestMinExtractionConflictsSharedView(t *testing.T) {
	// P2 with identical labels: both nodes have the same anonymized view, so
	// any view-consistent assignment makes the single edge monochromatic.
	inst := core.NewAnonymousInstance(graph.Path(2))
	l := core.MustNewLabeled(inst, []string{"x", "x"})
	report, err := MinExtractionConflicts(alwaysAccept(), l, 2)
	if err != nil {
		t.Fatal(err)
	}
	if report.DistinctViews != 1 {
		t.Errorf("DistinctViews = %d, want 1", report.DistinctViews)
	}
	if report.MinBadEdges != 1 || report.MinFailNodes != 2 {
		t.Errorf("report = %+v, want 1 bad edge, 2 failing nodes", report)
	}
	if report.FailFraction != 1.0 {
		t.Errorf("FailFraction = %f, want 1.0", report.FailFraction)
	}
}

// TestBuildParallelEquivalence: the worker-pool builder produces a
// neighborhood graph identical to the sequential one (same views in the
// same canonical order, same edges, same loops).
func TestBuildParallelEquivalence(t *testing.T) {
	insts := []core.Instance{
		core.NewAnonymousInstance(graph.Path(3)),
		core.NewAnonymousInstance(graph.Path(4)),
		core.NewAnonymousInstance(graph.MustCycle(4)),
	}
	seq, err := build(revealDecoder(), allLabelings([]string{"0", "1", "x"}, insts...))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2, 7} {
		par, err := BuildShardedCtx(context.Background(), obs.Scope{}, revealDecoder(), ShardedAllLabelings([]string{"0", "1", "x"}, insts...), 0, workers)
		if err != nil {
			t.Fatal(err)
		}
		if par.Size() != seq.Size() || par.EdgeCount() != seq.EdgeCount() || par.LoopCount() != seq.LoopCount() {
			t.Fatalf("workers=%d: parallel (%d,%d,%d) != sequential (%d,%d,%d)",
				workers, par.Size(), par.EdgeCount(), par.LoopCount(),
				seq.Size(), seq.EdgeCount(), seq.LoopCount())
		}
		for i := 0; i < seq.Size(); i++ {
			if par.ViewAt(i).Key() != seq.ViewAt(i).Key() {
				t.Fatalf("workers=%d: view %d differs", workers, i)
			}
		}
		if !par.Graph().Equal(seq.Graph()) {
			t.Fatalf("workers=%d: edge structure differs", workers)
		}
	}
}

func TestBuildParallelEnumeratorError(t *testing.T) {
	bad := core.Labeled{Instance: core.Instance{}, Labels: nil}
	if _, err := BuildShardedCtx(context.Background(), obs.Scope{}, alwaysAccept(), ShardedFromLabeled(bad), 0, 2); err == nil {
		t.Error("invalid instance accepted by parallel builder")
	}
}

// TestBuildCancelWithinInstance pins how far a build runs past its
// cancellation: the decoder cancels the context on its first Decide, and
// each worker polls the context before every instance, so each absorbs at
// most the instance it is in. No instance can be absorbed before that
// first Decide returns, and a second worker's first Decide waits for it,
// so no worker absorbs a second instance.
func TestBuildCancelWithinInstance(t *testing.T) {
	se := ShardedAllLabelings([]string{"0", "1", "x"},
		core.NewAnonymousInstance(graph.Path(4)), core.NewAnonymousInstance(graph.MustCycle(4)))
	for _, workers := range []int{1, 2} {
		ctx, stop := context.WithCancel(context.Background())
		var once sync.Once
		d := core.NewDecoder(1, true, func(*view.View) bool {
			once.Do(stop)
			return true
		})
		sc := obs.NewScope()
		ng, err := BuildShardedCtx(ctx, sc, d, se, 0, workers)
		stop()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if ng != nil {
			t.Errorf("workers=%d: cancelled build returned a graph", workers)
		}
		if got := sc.Counter("nbhd.instances").Value(); got < 1 || got > int64(workers) {
			t.Errorf("workers=%d: %d instances absorbed after the first Decide cancelled, want 1..%d", workers, got, workers)
		}
		if got := sc.Counter("nbhd.shards.cancelled").Value(); got != 1 {
			t.Errorf("workers=%d: nbhd.shards.cancelled = %d, want 1", workers, got)
		}
	}
}

func TestMinExtractionConflictsBudgetGuard(t *testing.T) {
	// A big instance where every node has a distinct view would need k^n
	// assignments; the search must refuse rather than hang.
	g := graph.Path(30)
	inst := core.NewInstance(g) // identifiers make all 30 views distinct
	l := core.MustNewLabeled(inst, make([]string, 30))
	named := core.NewDecoder(1, false, func(*view.View) bool { return true })
	if _, err := MinExtractionConflicts(named, l, 3); err == nil {
		t.Error("oversized conflict search accepted")
	}
}

// ClassInstances builds anonymous instances (default ports, no IDs) from a
// list of graphs, filtered by pred (pass nil for no filter). It is a
// convenience for assembling promise-class families.
func ClassInstances(gs []*graph.Graph, pred func(*graph.Graph) bool) []core.Instance {
	var out []core.Instance
	for _, g := range gs {
		if pred != nil && !pred(g) {
			continue
		}
		out = append(out, core.NewAnonymousInstance(g))
	}
	return out
}
