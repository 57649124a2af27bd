package forgetful

import (
	"context"
	"errors"
	"testing"

	"hidinglcp/internal/core"
	"hidinglcp/internal/decoders"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/nbhd"
	"hidinglcp/internal/obs"
	"hidinglcp/internal/view"
)

// okDecoder accepts any view whose center label is "ok" — an
// order-invariant (in fact anonymous-capable, but registered as
// non-anonymous so views keep identifiers) strawman whose strong soundness
// the Section 5 pipeline refutes mechanically.
func okDecoder() core.Decoder {
	return core.NewDecoder(1, false, func(mu *view.View) bool {
		return mu.Labels[view.Center] == "ok"
	})
}

// okP3 builds a labeled P3 yes-instance with the given identifiers along
// the path and all labels "ok".
func okP3(ids graph.IDs) core.Labeled {
	g := graph.Path(3)
	inst := core.Instance{G: g, Prt: graph.DefaultPorts(g), IDs: ids, NBound: 3}
	return core.MustNewLabeled(inst, []string{"ok", "ok", "ok"})
}

// triangleAnchors returns the three path views whose centers see the other
// two identifiers — a realizable family whose G_bad is a triangle.
func triangleAnchors(t *testing.T) (Anchors, []*view.View) {
	t.Helper()
	hosts := []struct {
		ids    graph.IDs
		center int
	}{
		{graph.IDs{2, 1, 3}, 1},
		{graph.IDs{1, 2, 3}, 1},
		{graph.IDs{1, 3, 2}, 1},
	}
	var views []*view.View
	for _, h := range hosts {
		l := okP3(h.ids)
		mu, err := l.ViewOf(h.center, 1)
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, mu)
	}
	anchors, err := NewAnchors(views...)
	if err != nil {
		t.Fatal(err)
	}
	return anchors, views
}

func TestNewAnchorsErrors(t *testing.T) {
	l := okP3(graph.IDs{1, 2, 3})
	mu, err := l.ViewOf(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAnchors(mu, mu); err == nil {
		t.Error("duplicate center identifier accepted")
	}
	if _, err := NewAnchors(mu.Anonymize()); err == nil {
		t.Error("anonymous anchor accepted")
	}
}

func TestCheckRealizableTriangle(t *testing.T) {
	anchors, views := triangleAnchors(t)
	if err := CheckRealizable(views, anchors); err != nil {
		t.Errorf("triangle anchors should be realizable: %v", err)
	}
}

func TestCheckRealizableMissingAnchor(t *testing.T) {
	anchors, views := triangleAnchors(t)
	delete(anchors, 3)
	if err := CheckRealizable(views, anchors); err == nil {
		t.Error("missing anchor accepted")
	}
}

func TestCheckRealizableIncompatible(t *testing.T) {
	// Two radius-2 views disagreeing on a shared near node's label are not
	// realizable together.
	g := graph.Path(5)
	pt := graph.DefaultPorts(g)
	ids := graph.SequentialIDs(5)
	labA := []string{"ok", "ok", "ok", "ok", "ok"}
	labB := []string{"ok", "DIFFERENT", "ok", "ok", "ok"}
	muA := view.MustExtract(g, pt, ids, labA, 5, 1, 2)
	muB := view.MustExtract(g, pt, ids, labB, 5, 2, 2)
	anchors, err := NewAnchors(muA, muB)
	if err != nil {
		t.Fatal(err)
	}
	err = CheckRealizable([]*view.View{muA, muB}, anchors)
	if err == nil {
		t.Error("incompatible views reported realizable")
	}
}

// TestGBadPipeline runs the full Lemma 5.1 demonstration: realizable
// anchors forming an odd cycle assemble into a concrete instance G_bad on
// which the strawman decoder accepts every node, refuting its strong
// soundness mechanically.
func TestGBadPipeline(t *testing.T) {
	anchors, views := triangleAnchors(t)
	if err := CheckRealizable(views, anchors); err != nil {
		t.Fatal(err)
	}
	l, nodeOf, err := BuildGBad(anchors, 3)
	if err != nil {
		t.Fatalf("BuildGBad: %v", err)
	}
	if l.G.N() != 3 || l.G.M() != 3 {
		t.Fatalf("G_bad = %v, want a triangle", l.G)
	}
	// Radius-1 anchors from path hosts record far-end ports of degree-1
	// nodes; in the realized triangle those nodes have degree 2, so some
	// realized views legitimately differ from their anchors in far-end port
	// numbers (the caveat documented on VerifyRealization; for r >= 2 the
	// compatibility relation rules this out). At least the identifier-1
	// anchor, whose far-end ports happen to agree, must match exactly.
	match, err := VerifyRealization(l, nodeOf, anchors, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !match[1] {
		t.Error("realized view of identifier 1 should match its anchor exactly")
	}
	// The decoder accepts everywhere on a non-bipartite instance.
	err = core.CheckStrongSoundness(okDecoder(), core.TwoCol(), l)
	if err == nil {
		t.Fatal("expected a strong soundness violation on G_bad")
	}
	var v *core.StrongSoundnessViolation
	if !errors.As(err, &v) {
		t.Fatalf("unexpected error type %T", err)
	}
	if len(v.Accepting) != 3 {
		t.Errorf("accepting set %v, want all of G_bad", v.Accepting)
	}
}

func TestBuildGBadAsymmetricEdges(t *testing.T) {
	// An anchor naming a neighbor that does not name it back must fail.
	muA := view.MustExtract(graph.Path(2), graph.DefaultPorts(graph.Path(2)),
		graph.IDs{1, 2}, []string{"ok", "ok"}, 2, 0, 1)
	soloHost := graph.New(1)
	muB := view.MustExtract(soloHost, graph.DefaultPorts(soloHost),
		graph.IDs{2}, []string{"ok"}, 2, 0, 1)
	anchors, err := NewAnchors(muA, muB)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := BuildGBad(anchors, 2); err == nil {
		t.Error("asymmetric anchor edges accepted")
	}
}

func TestBuildGBadMissingNeighborAnchor(t *testing.T) {
	muA := view.MustExtract(graph.Path(2), graph.DefaultPorts(graph.Path(2)),
		graph.IDs{1, 2}, []string{"ok", "ok"}, 2, 0, 1)
	anchors, err := NewAnchors(muA)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := BuildGBad(anchors, 2); err == nil {
		t.Error("neighbor without anchor accepted")
	}
}

func TestBuildGBadPathRoundTrip(t *testing.T) {
	// Anchors taken from one instance reassemble that instance exactly.
	l := okP3(graph.IDs{1, 2, 3})
	var views []*view.View
	for v := 0; v < 3; v++ {
		mu, err := l.ViewOf(v, 1)
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, mu)
	}
	anchors, err := NewAnchors(views...)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, nodeOf, err := BuildGBad(anchors, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !rebuilt.G.Equal(l.G) {
		t.Errorf("rebuilt %v, want %v", rebuilt.G, l.G)
	}
	match, err := VerifyRealization(rebuilt, nodeOf, anchors, 1)
	if err != nil {
		t.Fatal(err)
	}
	for id, ok := range match {
		if !ok {
			t.Errorf("identifier %d not realized faithfully", id)
		}
	}
}

func TestLiftWalk(t *testing.T) {
	// Lift the Lemma 5.4 escape walk of a C12 yes-instance into the
	// accepting neighborhood graph of the ok-decoder.
	g := graph.MustCycle(12)
	inst := core.NewInstance(g)
	labels := make([]string, 12)
	for i := range labels {
		labels[i] = "ok"
	}
	l := core.MustNewLabeled(inst, labels)
	d := okDecoder()
	ng, err := nbhd.BuildShardedCtx(context.Background(), obs.Scope{}, d, nbhd.ShardedFromLabeled(l), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	views, err := l.Views(1)
	if err != nil {
		t.Fatal(err)
	}
	walk, err := EscapeWalk(g, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	lifted, err := LiftWalk(ng, views, walk, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(lifted) != len(walk) {
		t.Errorf("lifted length %d, want %d", len(lifted), len(walk))
	}
	// Consecutive lifted views are adjacent in the neighborhood graph.
	for i := 0; i+1 < len(lifted); i++ {
		if lifted[i] != lifted[i+1] && !ng.Graph().HasEdge(lifted[i], lifted[i+1]) {
			t.Errorf("lifted step %d: views %d,%d not adjacent", i, lifted[i], lifted[i+1])
		}
	}
}

func TestLiftWalkRejectsForeignViews(t *testing.T) {
	// A walk over views the decoder rejects cannot be lifted.
	g := graph.MustCycle(4)
	inst := core.NewInstance(g)
	l := core.MustNewLabeled(inst, []string{"no", "no", "no", "no"})
	ng, err := nbhd.BuildShardedCtx(context.Background(), obs.Scope{}, okDecoder(), nbhd.ShardedFromLabeled(l), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	views, err := l.Views(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LiftWalk(ng, views, []int{0, 1, 0}, false); err == nil {
		t.Error("lift of rejected views succeeded")
	}
}

func TestFindOddClosedWalkDegreeOne(t *testing.T) {
	// The DegreeOne scheme's V(D,4) slice contains an odd closed walk, and
	// even a non-backtracking one (Lemma 5.5's precondition machinery).
	s := decoders.DegreeOne()
	ng, err := nbhd.BuildShardedCtx(context.Background(), obs.Scope{}, s.Decoder, nbhd.ShardedAllLabelings(decoders.DegOneAlphabet(), decoders.DegOneFamily(4)...), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	walk := FindOddClosedWalk(ng, 15, false)
	if walk == nil {
		t.Fatal("no odd closed walk found")
	}
	if (len(walk)-1)%2 == 0 {
		t.Errorf("walk %v has even edge count", walk)
	}
	nbWalk := FindOddClosedWalk(ng, 15, true)
	if nbWalk == nil {
		t.Log("no non-backtracking odd walk within bound (acceptable: anonymous views)")
	} else if (len(nbWalk)-1)%2 == 0 {
		t.Errorf("non-backtracking walk %v has even edge count", nbWalk)
	}
}

func TestFindOddClosedWalkBipartite(t *testing.T) {
	// The trivial revealing scheme's slice is bipartite: no odd walk.
	s := decoders.Trivial(2)
	inst := core.NewAnonymousInstance(graph.Path(3))
	ng, err := nbhd.BuildShardedCtx(context.Background(), obs.Scope{}, s.Decoder, nbhd.ShardedAllLabelings([]string{"0", "1"}, inst), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if walk := FindOddClosedWalk(ng, 20, false); walk != nil {
		t.Errorf("odd walk %v in a bipartite neighborhood graph", walk)
	}
	if walk := FindOddClosedWalk(ng, 20, true); walk != nil {
		t.Errorf("non-backtracking odd walk %v in a bipartite neighborhood graph", walk)
	}
}
