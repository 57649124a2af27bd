package forgetful

import (
	"fmt"
	"sort"
	"testing"

	"hidinglcp/internal/core"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/view"
)

// twoHostViews builds views of two P3 instances that SHARE identifier 2 at
// incompatible occurrences (different labels at the id-2 node), the
// component-wise situation of Lemma 5.2.
func twoHostViews(t *testing.T) []*view.View {
	t.Helper()
	mk := func(ids graph.IDs, labels []string, center int) *view.View {
		g := graph.Path(3)
		inst := core.Instance{G: g, Prt: graph.DefaultPorts(g), IDs: ids, NBound: 9}
		l := core.MustNewLabeled(inst, labels)
		mu, err := l.ViewOf(center, 1)
		if err != nil {
			t.Fatal(err)
		}
		return mu
	}
	return []*view.View{
		mk(graph.IDs{1, 2, 3}, []string{"ok", "ok", "ok"}, 1),
		mk(graph.IDs{4, 2, 5}, []string{"ok", "DIFFERENT", "ok"}, 1),
	}
}

func TestIDComponentsSplit(t *testing.T) {
	// The two host views are NOT adjacent in H (they come from disjoint
	// instances), so identifier 2's occurrences form two components.
	h := twoHostViews(t)
	var noEdges [][2]int
	comps := IDComponents(h, noEdges, 2)
	if len(comps) != 2 {
		t.Fatalf("identifier 2 groups into %d components, want 2", len(comps))
	}
	// Identifier 1 occurs once: a single component.
	if got := IDComponents(h, noEdges, 1); len(got) != 1 {
		t.Errorf("identifier 1 components = %d, want 1", len(got))
	}
	// An absent identifier has no components.
	if got := IDComponents(h, noEdges, 99); len(got) != 0 {
		t.Errorf("absent identifier components = %d, want 0", len(got))
	}
}

func TestIDComponentsConnectedStayTogether(t *testing.T) {
	// Views of one instance, adjacent along the host path, form ONE
	// component of S(2).
	mk := func(center int) *view.View {
		g := graph.Path(3)
		inst := core.Instance{G: g, Prt: graph.DefaultPorts(g), IDs: graph.IDs{1, 2, 3}, NBound: 9}
		l := core.MustNewLabeled(inst, []string{"ok", "ok", "ok"})
		mu, err := l.ViewOf(center, 1)
		if err != nil {
			t.Fatal(err)
		}
		return mu
	}
	h := []*view.View{mk(0), mk(1), mk(2)}
	edges := [][2]int{{0, 1}, {1, 2}} // H mirrors the host path
	if comps := IDComponents(h, edges, 2); len(comps) != 1 {
		t.Errorf("connected occurrences split into %d components", len(comps))
	}
	// Without the H-edges the same occurrences fall apart.
	if comps := IDComponents(h, nil, 2); len(comps) != 3 {
		t.Errorf("edgeless S(2) has %d components, want 3", len(comps))
	}
}

func TestRemapIDs(t *testing.T) {
	h := twoHostViews(t)
	out, err := RemapIDs(h[:1], map[int]int{2: 7})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].LocalNodeWithID(2) != -1 || out[0].LocalNodeWithID(7) < 0 {
		t.Error("remap did not substitute identifier 2 -> 7")
	}
	if h[0].LocalNodeWithID(2) < 0 {
		t.Error("remap mutated the input view")
	}
	// Colliding remap fails.
	if _, err := RemapIDs(h[:1], map[int]int{2: 1}); err == nil {
		t.Error("collision with identifier 1 accepted")
	}
}

// TestLemma52Pipeline: the split makes an unrealizable collection
// realizable for an order-invariant decoder, after which G_bad assembles —
// the executable form of Lemma 5.2.
func TestLemma52Pipeline(t *testing.T) {
	h := twoHostViews(t)
	anchors, err := NewAnchors(h...)
	if err != nil {
		// Both views have the same center identifier (2)? No: centers are
		// both the middle node with ids 2 and 2 — duplicate anchors are
		// expected here; split FIRST, then anchor.
		t.Logf("pre-split anchors fail as expected: %v", err)
	}
	split, used, err := SplitIdentifier(h, nil, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if used != 1 {
		t.Fatalf("used %d fresh identifiers, want 1", used)
	}
	anchors, err = NewAnchors(split...)
	if err != nil {
		t.Fatalf("anchors after split: %v", err)
	}
	// The centers' neighbor identifiers (1,3,4,5) need anchors too before
	// BuildGBad can assemble; supply degree-1 leaf views from the hosts.
	leafViews := leafAnchors(t, split)
	all := append(append([]*view.View{}, split...), leafViews...)
	anchors, err = NewAnchors(all...)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckRealizable(all, anchors); err != nil {
		t.Fatalf("split collection still unrealizable: %v", err)
	}
	gBad, _, err := BuildGBad(anchors, 101)
	if err != nil {
		t.Fatal(err)
	}
	// Two disjoint P3s: 6 nodes, 4 edges.
	if gBad.G.N() != 6 || gBad.G.M() != 4 {
		t.Errorf("G_bad = %v, want two disjoint paths", gBad.G)
	}
}

// leafAnchors reconstructs the degree-1 views matching the split centers'
// host instances.
func leafAnchors(t *testing.T, centers []*view.View) []*view.View {
	t.Helper()
	var out []*view.View
	for _, mu := range centers {
		g := graph.Path(3)
		ids := make(graph.IDs, 3)
		labels := make([]string, 3)
		// Center view of a P3 middle node: local 0 = center, locals 1, 2 =
		// the leaves in host order.
		ids[1] = mu.IDs[view.Center]
		labels[1] = mu.Labels[view.Center]
		for p0, w := range mu.Ports.Rows[view.Center] {
			if w < 0 {
				continue
			}
			host := 0
			if p0 == 1 {
				host = 2
			}
			ids[host] = mu.IDs[w]
			labels[host] = mu.Labels[w]
		}
		inst := core.Instance{G: g, Prt: graph.DefaultPorts(g), IDs: ids, NBound: mu.NBound}
		l := core.MustNewLabeled(inst, labels)
		for _, leaf := range []int{0, 2} {
			lv, err := l.ViewOf(leaf, 1)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, lv)
		}
	}
	return out
}

func TestSplitIdentifierNoop(t *testing.T) {
	h := twoHostViews(t)
	out, used, err := SplitIdentifier(h, nil, 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	if used != 0 {
		t.Errorf("single-component identifier used %d fresh ids", used)
	}
	if out[0] != h[0] || out[1] != h[1] {
		t.Error("no-op split copied views")
	}
}

// SplitIdentifier performs one Lemma 5.2 step on the view collection h
// (with H-adjacency edges): if identifier id occurs in more than one
// component of S(id), every component after the first is renamed to a
// fresh identifier drawn from freshBase, freshBase+1, ... — preserving
// relative order requires the caller to pick freshBase inside the interval
// the paper allocates to id. The rewrite changes the decoder's outputs
// only if the decoder is not order-invariant, which is exactly the
// hypothesis of Lemma 5.2. It returns the rewritten collection and the
// number of fresh identifiers used.
func SplitIdentifier(h []*view.View, edges [][2]int, id, freshBase int) ([]*view.View, int, error) {
	comps := IDComponents(h, edges, id)
	if len(comps) <= 1 {
		return h, 0, nil
	}
	out := append([]*view.View(nil), h...)
	used := 0
	for ci := 1; ci < len(comps); ci++ {
		fresh := freshBase + used
		used++
		remap := map[int]int{id: fresh}
		for _, hi := range comps[ci] {
			replaced, err := RemapIDs([]*view.View{out[hi]}, remap)
			if err != nil {
				return nil, 0, fmt.Errorf("splitting identifier %d in view %d: %w", id, hi, err)
			}
			out[hi] = replaced[0]
		}
	}
	return out, used, nil
}

// The helpers below implement the identifier surgery of Lemma 5.2: when a
// collection of views is only COMPONENT-WISE realizable — the occurrences
// of some identifier i split into groups that are pairwise incompatible —
// an order-invariant decoder lets us rename i to a fresh identifier inside
// all but one group, making the collection realizable outright. The paper
// allocates the interval I_i = [(i-1)|V(H)|+1, i|V(H)|] per original
// identifier so the renaming preserves relative order globally.

// IDComponents computes the connected components of S(id) exactly as
// Section 5.1 defines it: the subgraph of H induced by the views containing
// a node with the given identifier, under H's own adjacency (edges is the
// edge list of H over view indices 0..len(h)-1). It returns one sorted
// slice of view indices per component, components ordered by smallest
// member.
func IDComponents(h []*view.View, edges [][2]int, id int) [][]int {
	holder := make(map[int]bool, len(h))
	for hi, mu := range h {
		if mu.LocalNodeWithID(id) >= 0 {
			holder[hi] = true
		}
	}
	parent := make(map[int]int, len(holder))
	for hi := range holder {
		parent[hi] = hi
	}
	var find func(x int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, e := range edges {
		if holder[e[0]] && holder[e[1]] {
			parent[find(e[0])] = find(e[1])
		}
	}
	groups := map[int][]int{}
	for hi := range holder {
		root := find(hi)
		groups[root] = append(groups[root], hi)
	}
	var out [][]int
	for _, g := range groups {
		sort.Ints(g)
		out = append(out, g)
	}
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out
}

// RemapIDs returns deep copies of the views with identifiers substituted
// according to remap (identifiers not in the map are kept). It errors if
// the substitution would collide two identifiers within one view.
func RemapIDs(h []*view.View, remap map[int]int) ([]*view.View, error) {
	out := make([]*view.View, len(h))
	for hi, mu := range h {
		c := mu.Anonymize() // deep copy; IDs restored below
		seen := map[int]bool{}
		for i, id := range mu.IDs {
			next := id
			if to, ok := remap[id]; ok {
				next = to
			}
			if next != 0 && seen[next] {
				return nil, fmt.Errorf("view %d: remap collides on identifier %d", hi, next)
			}
			seen[next] = true
			c.IDs[i] = next
			if next > c.NBound {
				c.NBound = next
			}
		}
		out[hi] = c
	}
	return out, nil
}
