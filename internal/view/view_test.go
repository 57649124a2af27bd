package view

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hidinglcp/internal/graph"
	"hidinglcp/internal/graph/graphtest"
)

func blankLabels(n int) []string { return make([]string, n) }

func extract(t *testing.T, g *graph.Graph, center, r int) *View {
	t.Helper()
	v, err := Extract(g, graph.DefaultPorts(g), graph.SequentialIDs(g.N()), blankLabels(g.N()), g.N(), center, r)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	return v
}

// TestInternLocate checks that handles fill the interner's chunks in order,
// each chunk to its length, and that the chunks reach the last handle an
// interner may assign.
func TestInternLocate(t *testing.T) {
	var wantC, wantOff uint32
	for h := Handle(0); h < internFirstSize<<6; h++ {
		c, off := internLocate(h)
		if c != wantC || off != wantOff {
			t.Fatalf("handle %d is at chunk %d offset %d, want %d, %d", h, c, off, wantC, wantOff)
		}
		if wantOff++; wantOff == internFirstSize<<wantC {
			wantC, wantOff = wantC+1, 0
		}
	}
	if c, off := internLocate(internMaxViews - 1); c >= internMaxChunks || off >= internFirstSize<<c {
		t.Fatalf("the last handle is at chunk %d offset %d, past %d chunks", c, off, internMaxChunks)
	}
}

func TestExtractRadiusZero(t *testing.T) {
	g := graph.Path(3)
	v := extract(t, g, 1, 0)
	if v.N() != 1 {
		t.Fatalf("radius-0 view has %d nodes, want 1", v.N())
	}
	if v.Dist[Center] != 0 {
		t.Errorf("center distance = %d, want 0", v.Dist[Center])
	}
}

func TestExtractRadiusOnePath(t *testing.T) {
	g := graph.Path(5)
	v := extract(t, g, 2, 1)
	if v.N() != 3 {
		t.Fatalf("view has %d nodes, want 3", v.N())
	}
	if v.Degree(Center) != 2 {
		t.Errorf("center degree = %d, want 2", v.Degree(Center))
	}
	// IDs: center is host node 2 (ID 3); neighbors are 1 and 3 (IDs 2, 4).
	if v.IDs[Center] != 3 {
		t.Errorf("center ID = %d, want 3", v.IDs[Center])
	}
}

func TestFrontierTruncation(t *testing.T) {
	// Triangle: radius-1 view of node 0 sees nodes 1, 2 but NOT the edge
	// between them (both at distance exactly 1).
	g := graph.MustCycle(3)
	v := extract(t, g, 0, 1)
	if v.N() != 3 {
		t.Fatalf("view has %d nodes, want 3", v.N())
	}
	if v.HasEdge(1, 2) {
		t.Error("frontier edge 1-2 visible in radius-1 view")
	}
	if !v.HasEdge(Center, 1) || !v.HasEdge(Center, 2) {
		t.Error("center edges missing")
	}
	// With radius 2 the whole triangle is visible.
	v2 := extract(t, g, 0, 2)
	if !v2.HasEdge(1, 2) {
		t.Error("edge 1-2 should be visible at radius 2")
	}
}

// Fig. 2 of the paper: in C4 viewed at radius 2 from a node, the edge
// between the two distance-2... actually in C4 at radius 2 all nodes are
// within distance 2; the far node is at distance 2 and its two incident
// edges connect distance-1 nodes to a distance-2 node, hence visible. Use C5
// at radius 2: the two far nodes are both at distance 2 and the edge between
// them is invisible (the paper's "edge between nodes 1 and 4" phenomenon).
func TestFig2HiddenEdge(t *testing.T) {
	g := graph.MustCycle(5)
	v := extract(t, g, 0, 2)
	if v.N() != 5 {
		t.Fatalf("view has %d nodes, want 5", v.N())
	}
	// Find the two local nodes at distance 2; their edge must be hidden.
	var far []int
	for i, d := range v.Dist {
		if d == 2 {
			far = append(far, i)
		}
	}
	if len(far) != 2 {
		t.Fatalf("found %d distance-2 nodes, want 2", len(far))
	}
	if v.HasEdge(far[0], far[1]) {
		t.Error("edge between the two distance-2 nodes should be invisible")
	}
	// Total visible edges: 4 of the 5 cycle edges.
	ports := 0
	for _, row := range v.Ports.Rows {
		for _, w := range row {
			if w >= 0 {
				ports++
			}
		}
	}
	if got := ports / 2; got != 4 {
		t.Errorf("visible edges = %d, want 4", got)
	}
}

func TestExtractErrors(t *testing.T) {
	g := graph.Path(3)
	pt := graph.DefaultPorts(g)
	ids := graph.SequentialIDs(3)
	if _, err := Extract(g, pt, ids, blankLabels(3), 3, 9, 1); err == nil {
		t.Error("bad center accepted")
	}
	if _, err := Extract(g, pt, ids, blankLabels(2), 3, 0, 1); err == nil {
		t.Error("short labeling accepted")
	}
	if _, err := Extract(g, pt, graph.IDs{1, 2}, blankLabels(3), 3, 0, 1); err == nil {
		t.Error("short ID assignment accepted")
	}
	if _, err := Extract(g, pt, ids, blankLabels(3), 3, 0, -1); err == nil {
		t.Error("negative radius accepted")
	}
}

func TestPortsVisibleBothDirections(t *testing.T) {
	g := graph.Path(3)
	v := extract(t, g, 1, 1)
	if v.Degree(Center) != 2 {
		t.Fatalf("center degree %d, want 2", v.Degree(Center))
	}
	for _, w := range v.Ports.Rows[Center] {
		if _, ok := v.Port(w, Center); !ok {
			t.Errorf("missing port (%d,center)", w)
		}
	}
}

func TestAnonymize(t *testing.T) {
	g := graph.Path(3)
	v := extract(t, g, 1, 1)
	if v.Anonymous() {
		t.Fatal("fresh view with IDs should not be anonymous")
	}
	a := v.Anonymize()
	if !a.Anonymous() {
		t.Fatal("anonymized view still has IDs")
	}
	if v.Anonymous() {
		t.Error("Anonymize mutated the original")
	}
	if a.N() != v.N() || a.Radius != v.Radius {
		t.Error("Anonymize changed structure")
	}
}

func TestLocalNodeWithID(t *testing.T) {
	g := graph.Path(5)
	v := extract(t, g, 2, 1)
	if got := v.LocalNodeWithID(3); got != Center {
		t.Errorf("LocalNodeWithID(3) = %d, want center", got)
	}
	if got := v.LocalNodeWithID(1); got != -1 {
		t.Errorf("LocalNodeWithID(1) = %d, want -1 (outside view)", got)
	}
	if got := v.Anonymize().LocalNodeWithID(0); got != -1 {
		t.Error("identifier 0 should never match")
	}
}

func TestKeyEqualSameViews(t *testing.T) {
	g := graph.MustCycle(6)
	// Under DefaultPorts, nodes 0 and 1 of C6 have identical port patterns
	// (center ports 1,2; both far-end ports 1), so their radius-1 views are
	// equal once anonymized, but differ while IDs are present.
	v0 := extract(t, g, 0, 1)
	v1 := extract(t, g, 1, 1)
	if v0.Key() == v1.Key() {
		t.Error("views with different IDs share a key")
	}
	if v0.Anonymize().Key() != v1.Anonymize().Key() {
		t.Error("anonymized symmetric views should share a key")
	}
	if !v0.Anonymize().Equal(v1.Anonymize()) {
		t.Error("Equal disagrees with Key")
	}
	// Node 5 sees far-end ports 2,2 — genuinely different even anonymized.
	v5 := extract(t, g, 5, 1)
	if v0.Anonymize().Key() == v5.Anonymize().Key() {
		t.Error("views with different far-end ports share a key")
	}
}

func TestKeyDistinguishesLabels(t *testing.T) {
	g := graph.Path(2)
	pt := graph.DefaultPorts(g)
	a := MustExtract(g, pt, nil, []string{"x", "y"}, 2, 0, 1)
	b := MustExtract(g, pt, nil, []string{"x", "z"}, 2, 0, 1)
	if a.Key() == b.Key() {
		t.Error("views with different labels share a key")
	}
}

func TestKeyDistinguishesPorts(t *testing.T) {
	// Path 0-1-2-3 viewed from node 1: flipping node 2's ports changes the
	// far-end port number that node 1 sees, which must change the key.
	// (Merely permuting the CENTER's own ports over identical arms does not
	// change the anonymous view, and must not change the key.)
	g := graph.Path(4)
	ptA := graph.DefaultPorts(g)
	ptB, err := graph.PortsFromPerm(g, [][]int{{0}, {0, 1}, {1, 0}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	a := MustExtract(g, ptA, nil, blankLabels(4), 4, 1, 1)
	b := MustExtract(g, ptB, nil, blankLabels(4), 4, 1, 1)
	if a.Key() == b.Key() {
		t.Error("views with different far-end ports share a key")
	}

	// Sanity: swapping which neighbor is behind the center's port 1 leaves
	// the anonymous view unchanged when the arms are otherwise identical.
	g2 := graph.Path(3)
	ptC, err := graph.PortsFromPerm(g2, [][]int{{0}, {1, 0}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	c := MustExtract(g2, graph.DefaultPorts(g2), nil, blankLabels(3), 3, 1, 1)
	d := MustExtract(g2, ptC, nil, blankLabels(3), 3, 1, 1)
	if c.Key() != d.Key() {
		t.Error("center port relabeling over identical arms changed the anonymous key")
	}
}

func TestKeyDistinguishesNBound(t *testing.T) {
	g := graph.Path(2)
	pt := graph.DefaultPorts(g)
	a := MustExtract(g, pt, nil, blankLabels(2), 2, 0, 1)
	b := MustExtract(g, pt, nil, blankLabels(2), 99, 0, 1)
	if a.Key() == b.Key() {
		t.Error("views with different N bounds share a key")
	}
}

func TestAnonymousKeyCanonicalUnderRelabeling(t *testing.T) {
	// The same star, with host nodes named differently, must give identical
	// anonymized keys when ports agree.
	gA := graph.MustFromEdges(4, [][2]int{{0, 1}, {0, 2}, {0, 3}})
	gB := graph.MustFromEdges(4, [][2]int{{3, 0}, {3, 1}, {3, 2}})
	a := MustExtract(gA, graph.DefaultPorts(gA), nil, blankLabels(4), 4, 0, 1)
	b := MustExtract(gB, graph.DefaultPorts(gB), nil, blankLabels(4), 4, 3, 1)
	if a.Key() != b.Key() {
		t.Errorf("relabeled stars have different keys:\n%s\n%s", a.Key(), b.Key())
	}
}

func TestRadius1Key(t *testing.T) {
	g := graph.Path(5)
	pt := graph.DefaultPorts(g)
	ids := graph.SequentialIDs(5)
	full := MustExtract(g, pt, ids, blankLabels(5), 5, 2, 2)
	// The radius-1 subview of the center inside the radius-2 view equals the
	// radius-1 key of a radius-1 extraction at the same node.
	direct := MustExtract(g, pt, ids, blankLabels(5), 5, 2, 1)
	if full.Radius1Key(Center) != direct.Radius1Key(Center) {
		t.Error("radius-1 subview disagrees with direct radius-1 extraction")
	}
}

func TestCompatibleBasic(t *testing.T) {
	// Host: path 0-1-2-3-4 with r=2. view(1) contains node 2 (ID 3) at
	// distance 1 < r; view(2) is centered at that node. Node 2-in-view(1)
	// must be compatible with view(2).
	g := graph.Path(5)
	pt := graph.DefaultPorts(g)
	ids := graph.SequentialIDs(5)
	mu1 := MustExtract(g, pt, ids, blankLabels(5), 5, 1, 2)
	mu2 := MustExtract(g, pt, ids, blankLabels(5), 5, 2, 2)
	u := mu1.LocalNodeWithID(ids[2])
	if u < 0 {
		t.Fatal("node 2 not in view(1)")
	}
	if !Compatible(mu1, u, mu2) {
		t.Error("same-instance views should be compatible")
	}
}

func TestCompatibleRejectsIDMismatch(t *testing.T) {
	g := graph.Path(5)
	pt := graph.DefaultPorts(g)
	ids := graph.SequentialIDs(5)
	mu1 := MustExtract(g, pt, ids, blankLabels(5), 5, 1, 2)
	mu2 := MustExtract(g, pt, ids, blankLabels(5), 5, 3, 2)
	u := mu1.LocalNodeWithID(ids[2])
	if Compatible(mu1, u, mu2) {
		t.Error("compatibility with wrong center ID accepted")
	}
	if Compatible(mu1, -1, mu2) || Compatible(mu1, 99, mu2) {
		t.Error("out-of-range node accepted")
	}
}

func TestCompatibleRejectsConflictingLabels(t *testing.T) {
	// Same path, same IDs, but node 1's label differs between the two
	// instances; node 1 is at distance < r in both views, so they conflict.
	g := graph.Path(5)
	pt := graph.DefaultPorts(g)
	ids := graph.SequentialIDs(5)
	lab1 := []string{"a", "b", "c", "d", "e"}
	lab2 := []string{"a", "X", "c", "d", "e"}
	mu1 := MustExtract(g, pt, ids, lab1, 5, 1, 2)
	mu2 := MustExtract(g, pt, ids, lab2, 5, 2, 2)
	u := mu1.LocalNodeWithID(ids[2])
	if Compatible(mu1, u, mu2) {
		t.Error("views with conflicting labels on a shared near node accepted")
	}
}

func TestCompatibleAllowsFarDifferences(t *testing.T) {
	// Fig. 7: nodes at distance >= r may differ arbitrarily. Take two hosts
	// that agree on the 1-ball around the shared region but differ beyond.
	g1 := graph.Path(5)                                                            // 0-1-2-3-4
	g2 := graph.MustFromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}) // longer path
	ids1 := graph.IDs{1, 2, 3, 4, 5}
	ids2 := graph.IDs{1, 2, 3, 4, 5, 6}
	pt1 := graph.DefaultPorts(g1)
	pt2 := graph.DefaultPorts(g2)
	mu1 := MustExtract(g1, pt1, ids1, blankLabels(5), 9, 1, 2)
	mu2 := MustExtract(g2, pt2, ids2, blankLabels(6), 9, 2, 2)
	u := mu1.LocalNodeWithID(3) // host node 2 in g1, center of mu2
	if u < 0 {
		t.Fatal("ID 3 not found in mu1")
	}
	if !Compatible(mu1, u, mu2) {
		t.Error("views differing only far from the shared region should be compatible")
	}
}

func TestCompatibleAnonymousFails(t *testing.T) {
	g := graph.Path(3)
	pt := graph.DefaultPorts(g)
	mu1 := MustExtract(g, pt, nil, blankLabels(3), 3, 0, 1)
	mu2 := MustExtract(g, pt, nil, blankLabels(3), 3, 1, 1)
	if Compatible(mu1, 1, mu2) {
		t.Error("anonymous views must not be compatible (IDs are 0)")
	}
}

// Property: a view's key is stable under re-extraction.
func TestKeyDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graphtest.ConnectedGNP(7, 0.4, rng)
		pt := graph.DefaultPorts(g)
		ids := graph.SequentialIDs(g.N())
		c := rng.Intn(g.N())
		r := rng.Intn(3)
		a := MustExtract(g, pt, ids, blankLabels(g.N()), g.N(), c, r)
		b := MustExtract(g, pt, ids, blankLabels(g.N()), g.N(), c, r)
		return a.Key() == b.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every node of a radius-r view is within distance r, and Dist is
// consistent with local adjacency (edges change distance by at most 1).
func TestViewDistanceInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graphtest.ConnectedGNP(8, 0.3, rng)
		pt := graph.DefaultPorts(g)
		c := rng.Intn(g.N())
		r := 1 + rng.Intn(2)
		v := MustExtract(g, pt, nil, blankLabels(g.N()), g.N(), c, r)
		for i, d := range v.Dist {
			if d < 0 || d > r {
				return false
			}
			for _, j := range v.Ports.Rows[i] {
				if j < 0 {
					continue
				}
				diff := v.Dist[j] - d
				if diff < -1 || diff > 1 {
					return false
				}
			}
		}
		return v.Dist[Center] == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: no frontier-frontier edges survive extraction.
func TestNoFrontierEdges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graphtest.ConnectedGNP(8, 0.35, rng)
		pt := graph.DefaultPorts(g)
		c := rng.Intn(g.N())
		r := 1 + rng.Intn(2)
		v := MustExtract(g, pt, nil, blankLabels(g.N()), g.N(), c, r)
		for i := 0; i < v.N(); i++ {
			for _, j := range v.Ports.Rows[i] {
				if j >= 0 && v.Dist[i] == r && v.Dist[j] == r {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompatibleRejectsPortMismatch(t *testing.T) {
	// Same path and IDs but node 1's port assignment differs: node 1 sits
	// at distance < r in both radius-2 views, so its radius-1 views (which
	// include ports) must match; they don't.
	g := graph.Path(5)
	ids := graph.SequentialIDs(5)
	ptA := graph.DefaultPorts(g)
	ptB, err := graph.PortsFromPerm(g, [][]int{{0}, {1, 0}, {0, 1}, {0, 1}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	labels := blankLabels(5)
	mu1 := MustExtract(g, ptA, ids, labels, 5, 1, 2)
	mu2 := MustExtract(g, ptB, ids, labels, 5, 2, 2)
	u := mu1.LocalNodeWithID(ids[2])
	if Compatible(mu1, u, mu2) {
		t.Error("views with conflicting ports on a shared near node accepted")
	}
}

func TestCompatibleFrontierUnconstrained(t *testing.T) {
	// A node at distance exactly r in BOTH views is unconstrained: its
	// radius-1 views may differ arbitrarily.
	g1 := graph.Path(5) // 0-1-2-3-4
	g2 := graph.Star(4) // 0 with leaves 1..3
	ids1 := graph.IDs{1, 2, 3, 4, 5}
	ids2 := graph.IDs{2, 3, 7, 8} // node with ID 3 is a LEAF here
	mu1 := MustExtract(g1, graph.DefaultPorts(g1), ids1, blankLabels(5), 9, 1, 1)
	// mu1 is centered at ID 2 and contains ID 3 at distance 1 = r; in the
	// star host, ID 3 is a leaf in a completely different environment.
	// Because the occurrence in mu1 sits on the frontier, only the center
	// identifiers constrain compatibility, and the ID-3 node of mu1 is
	// compatible with a star view centered at ID 3.
	u := mu1.LocalNodeWithID(3)
	mu3 := MustExtract(g2, graph.DefaultPorts(g2), ids2, blankLabels(4), 9, 1, 1)
	if mu3.IDs[Center] != 3 {
		t.Fatalf("expected center ID 3, got %d", mu3.IDs[Center])
	}
	if !Compatible(mu1, u, mu3) {
		t.Error("frontier node should be compatible with any matching-ID center")
	}
}

func TestRadius1KeyOrdersByPort(t *testing.T) {
	// Two stars whose arms differ only in which PORT leads to which label
	// must have different radius-1 keys.
	g := graph.Star(3)
	pt := graph.DefaultPorts(g)
	a := MustExtract(g, pt, nil, []string{"c", "x", "y"}, 3, 0, 1)
	b := MustExtract(g, pt, nil, []string{"c", "y", "x"}, 3, 0, 1)
	if a.Radius1Key(Center) == b.Radius1Key(Center) {
		t.Error("port-to-label association lost in Radius1Key")
	}
}

// HasEdge reports whether local nodes i and j are adjacent in the view.
func (v *View) HasEdge(i, j int) bool {
	_, ok := v.Port(i, j)
	return ok
}
