package view_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hidinglcp/internal/graph"
	"hidinglcp/internal/view"
)

// isomorphic is the test oracle for view equality, decided from the
// definition rather than by a second canonicalizer: it searches for a
// bijection of local nodes that fixes the center and preserves distance,
// identifier, label and degree per node and, per edge, adjacency and both
// port directions. Nodes are mapped in local order (by distance), so every
// non-center node meets an already-mapped neighbor and the search prunes
// early. Degrees match, so mapping every edge of a onto an edge of b with the
// same ports makes the edge sets correspond exactly.
func isomorphic(a, b *view.View) bool {
	n := a.N()
	if n != b.N() || a.Radius != b.Radius || a.NBound != b.NBound {
		return false
	}
	f := make([]int, n)
	used := make([]bool, n)
	for i := range f {
		f[i] = -1
	}
	fits := func(i, j int) bool {
		if a.Dist[i] != b.Dist[j] || a.IDs[i] != b.IDs[j] || a.Labels[i] != b.Labels[j] || a.Degree(i) != b.Degree(j) {
			return false
		}
		for _, k := range a.Adj[i] {
			fk := f[k]
			if fk < 0 {
				continue
			}
			pOut, ok := b.Port(j, fk)
			if !ok || pOut != a.Ports[[2]int{i, k}] || b.Ports[[2]int{fk, j}] != a.Ports[[2]int{k, i}] {
				return false
			}
		}
		return true
	}
	var extend func(i int) bool
	extend = func(i int) bool {
		if i == n {
			return true
		}
		for j := 0; j < n; j++ {
			if used[j] || (i == view.Center) != (j == view.Center) || !fits(i, j) {
				continue
			}
			f[i], used[j] = j, true
			if extend(i + 1) {
				return true
			}
			f[i], used[j] = -1, false
		}
		return false
	}
	return extend(0)
}

// partitionChecker verifies, view by view, that BinKey partitions views
// exactly as the isomorphism oracle does: views with equal keys are
// isomorphic, views with distinct keys are not, and Equal agrees with both.
type partitionChecker struct {
	t    *testing.T
	reps map[string]*view.View // canonical key -> first view seen with it
	list []*view.View          // the representatives, in first-seen order
}

func newPartitionChecker(t *testing.T) *partitionChecker {
	return &partitionChecker{t: t, reps: map[string]*view.View{}}
}

func (pc *partitionChecker) add(mu *view.View) {
	pc.t.Helper()
	b := string(mu.BinKey())
	if rep, ok := pc.reps[b]; ok {
		if !isomorphic(rep, mu) {
			pc.t.Fatalf("equal keys on non-isomorphic views %v and %v", rep, mu)
		}
		if !rep.Equal(mu) {
			pc.t.Fatalf("Equal is false inside one key class %v", mu)
		}
		return
	}
	for _, rep := range pc.list {
		if isomorphic(rep, mu) {
			pc.t.Fatalf("isomorphic views %v and %v have distinct keys", rep, mu)
		}
		if rep.Equal(mu) {
			pc.t.Fatalf("Equal is true across distinct key classes %v vs %v", rep, mu)
		}
	}
	pc.reps[b] = mu
	pc.list = append(pc.list, mu)
}

func (pc *partitionChecker) classes() int { return len(pc.list) }

// TestBinKeyPartitionConnectedGraphs sweeps every connected graph on up to
// 4 nodes under every 2-letter labeling, with sequential identifiers and
// anonymously, at radii 1 and 2, and checks that the keys partition the
// views exactly as the isomorphism oracle does.
func TestBinKeyPartitionConnectedGraphs(t *testing.T) {
	pc := newPartitionChecker(t)
	alphabet := []string{"a", "b"}
	for n := 2; n <= 4; n++ {
		graph.EnumConnectedGraphs(n, func(g *graph.Graph) bool {
			gg := g.Clone()
			pt := graph.DefaultPorts(gg)
			ids := graph.SequentialIDs(n)
			graph.EnumLabelings(n, len(alphabet), func(idx []int) bool {
				labels := make([]string, n)
				for v, a := range idx {
					labels[v] = alphabet[a]
				}
				for r := 1; r <= 2; r++ {
					for v := 0; v < n; v++ {
						pc.add(view.MustExtract(gg, pt, ids, labels, n, v, r))
						pc.add(view.MustExtract(gg, pt, nil, labels, n, v, r))
					}
				}
				return true
			})
			return true
		})
	}
	if pc.classes() < 50 {
		t.Fatalf("suspiciously few classes: %d", pc.classes())
	}
}

// TestBinKeyPartitionPortsAndDuplicateIDs varies the parts the connected
// sweep keeps fixed: every port assignment of C4, duplicated and zero-mixed
// identifier assignments, and two NBound values.
func TestBinKeyPartitionPortsAndDuplicateIDs(t *testing.T) {
	pc := newPartitionChecker(t)
	g := graph.MustCycle(4)
	labels := []string{"x", "y", "x", "z"}
	graph.EnumPorts(g, func(pt *graph.Ports) bool {
		for v := 0; v < g.N(); v++ {
			pc.add(view.MustExtract(g, pt, nil, labels, g.N(), v, 1))
		}
		return true
	})
	pt := graph.DefaultPorts(g)
	idCases := []graph.IDs{
		{7, 7, 3, 5}, // duplicate nonzero: disables the idOrder fast path
		{0, 1, 2, 3}, // zero mixed in
		{9, 8, 7, 6}, // descending
		{1, 2, 3, 4}, // ascending
	}
	for _, ids := range idCases {
		for nb := 4; nb <= 5; nb++ {
			for r := 1; r <= 2; r++ {
				for v := 0; v < g.N(); v++ {
					pc.add(view.MustExtract(g, pt, ids, labels, nb, v, r))
				}
			}
		}
	}
}

// TestBinKeyCanonicalUnderRelabeling checks canonicity directly: the same
// anonymous structure presented under permuted host-node numbering must
// produce identical keys (the property the min-search guarantees), and the
// oracle must agree with the key on every port assignment tried.
func TestBinKeyCanonicalUnderRelabeling(t *testing.T) {
	// C5 labeled twice with rotated node numbering.
	a := graph.MustCycle(5)
	labels := []string{"p", "q", "p", "q", "r"}
	muA := view.MustExtract(a, graph.DefaultPorts(a), nil, labels, 5, 0, 2)

	b := graph.New(5)
	// Same cycle with nodes renumbered v -> (v+2) mod 5.
	perm := func(v int) int { return (v + 2) % 5 }
	for v := 0; v < 5; v++ {
		w := (v + 1) % 5
		if !b.HasEdge(perm(v), perm(w)) {
			if err := b.AddEdge(perm(v), perm(w)); err != nil {
				t.Fatal(err)
			}
		}
	}
	labelsB := make([]string, 5)
	for v := 0; v < 5; v++ {
		labelsB[perm(v)] = labels[v]
	}
	muB := view.MustExtract(b, graph.DefaultPorts(b), nil, labelsB, 5, perm(0), 2)

	// Ports may differ between the two presentations (DefaultPorts follows
	// adjacency order), so only structural equality up to ports is forced;
	// with ports equalized via EnumPorts, some assignment must match.
	found := false
	graph.EnumPorts(b, func(pt *graph.Ports) bool {
		mu := view.MustExtract(b, pt, nil, labelsB, 5, perm(0), 2)
		same := bytes.Equal(mu.BinKey(), muA.BinKey())
		if iso := isomorphic(mu, muA); iso != same {
			t.Fatalf("isomorphic=%v but equal keys=%v", iso, same)
		}
		if same {
			found = true
			return false
		}
		return true
	})
	if !found {
		t.Fatal("no port assignment reproduces the rotated view")
	}
	_ = muB
}

// ringView hand-builds a radius-2 anonymous view that Extract never
// produces: the center reaches six unlabeled neighbors through one repeated
// port, and every neighbor reaches its two ring neighbors through one
// repeated port as well. ring lists the edges among the neighbors (local
// nodes 1..6). Every neighbor then has the same distance, label, degree
// and arm multiset, so refinement ends with one class of six nodes and only
// minBinKey's permutation search makes the key canonical.
func ringView(ring [][2]int) *view.View {
	v := &view.View{
		Radius: 2,
		Adj:    make([][]int, 7),
		Dist:   []int{0, 1, 1, 1, 1, 1, 1},
		Ports:  map[[2]int]int{},
		IDs:    make([]int, 7),
		Labels: make([]string, 7),
		NBound: 7,
	}
	link := func(a, b, pa, pb int) {
		v.Adj[a] = append(v.Adj[a], b)
		v.Adj[b] = append(v.Adj[b], a)
		v.Ports[[2]int{a, b}] = pa
		v.Ports[[2]int{b, a}] = pb
	}
	for i := 1; i <= 6; i++ {
		link(view.Center, i, 1, 1)
	}
	for _, e := range ring {
		link(e[0], e[1], 2, 2)
	}
	for i := range v.Adj {
		slices.Sort(v.Adj[i])
	}
	return v
}

// relabel returns v with local node i renumbered perm[i]; perm must fix
// the center.
func relabel(v *view.View, perm []int) *view.View {
	w := &view.View{
		Radius: v.Radius,
		Adj:    make([][]int, v.N()),
		Dist:   make([]int, v.N()),
		Ports:  map[[2]int]int{},
		IDs:    make([]int, v.N()),
		Labels: make([]string, v.N()),
		NBound: v.NBound,
	}
	for i := range v.Adj {
		pi := perm[i]
		w.Dist[pi], w.IDs[pi], w.Labels[pi] = v.Dist[i], v.IDs[i], v.Labels[i]
		for _, j := range v.Adj[i] {
			w.Adj[pi] = append(w.Adj[pi], perm[j])
			w.Ports[[2]int{pi, perm[j]}] = v.Ports[[2]int{i, j}]
		}
		slices.Sort(w.Adj[pi])
	}
	return w
}

// TestBinKeyPermutationSearch covers the branch of minBinKey that refinement
// cannot settle: on ringView's six indistinguishable neighbors the key must
// still be invariant under every relabeling (so skipping the search fails
// here), agree with the isomorphism oracle, and come out the same from
// BinKey and from AppendBinKey into a non-empty buffer.
func TestBinKeyPermutationSearch(t *testing.T) {
	hexagon := ringView([][2]int{{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {1, 6}})
	triangles := ringView([][2]int{{1, 2}, {2, 3}, {1, 3}, {4, 5}, {5, 6}, {4, 6}})
	if isomorphic(hexagon, triangles) {
		t.Fatal("oracle: a hexagon and two triangles are isomorphic")
	}
	rng := rand.New(rand.NewSource(1))
	for _, base := range []*view.View{hexagon, triangles} {
		for trial := 0; trial < 20; trial++ {
			perm := []int{view.Center, 1, 2, 3, 4, 5, 6}
			rng.Shuffle(6, func(i, j int) { perm[i+1], perm[j+1] = perm[j+1], perm[i+1] })
			mu := relabel(base, perm)
			prefix := []byte("prefix")
			appended := mu.AppendBinKey(prefix)
			if !bytes.Equal(appended[:len(prefix)], []byte("prefix")) || !bytes.Equal(appended[len(prefix):], mu.BinKey()) {
				t.Fatalf("perm %v: AppendBinKey and BinKey disagree", perm)
			}
			for _, other := range []*view.View{hexagon, triangles} {
				iso := isomorphic(mu, other)
				if same := bytes.Equal(mu.BinKey(), other.BinKey()); iso != same {
					t.Fatalf("perm %v: isomorphic=%v but equal keys=%v", perm, iso, same)
				}
			}
		}
	}
}

// TestKeyCacheCloneSafety is the satellite mutation test: keys are cached on
// first computation, and the cache must never leak into clones or
// anonymized copies, nor go stale on the original.
func TestKeyCacheCloneSafety(t *testing.T) {
	g := graph.Grid(3, 3)
	pt := graph.DefaultPorts(g)
	ids := graph.SequentialIDs(g.N())
	labels := make([]string, g.N())
	for i := range labels {
		labels[i] = fmt.Sprintf("l%d", i%3)
	}
	mu := view.MustExtract(g, pt, ids, labels, g.N(), 4, 2)

	b1 := append([]byte(nil), mu.BinKey()...)
	if !bytes.Equal(mu.BinKey(), b1) || mu.Key() != string(b1) {
		t.Fatal("cached key is not stable")
	}

	// A clone mutated before keying must compute its own key...
	c := mu.Clone()
	c.Labels[0] = "mutated"
	if isomorphic(c, mu) {
		t.Fatal("oracle: relabeling the center kept the view")
	}
	if bytes.Equal(c.BinKey(), b1) || c.Equal(mu) {
		t.Fatal("key cache leaked into a mutated clone")
	}
	// ...and the original's cache must survive the clone's life unchanged.
	if !bytes.Equal(mu.BinKey(), b1) {
		t.Fatal("original key changed after mutating a clone")
	}

	// An unmutated clone agrees with the original without sharing the cache.
	c2 := mu.Clone()
	if !isomorphic(c2, mu) || !bytes.Equal(c2.BinKey(), b1) || !c2.Equal(mu) {
		t.Fatal("unmutated clone disagrees with original")
	}

	// Anonymize drops identifiers, so its key must differ from the cached
	// identified one, and the original cache must again be untouched.
	a := mu.Anonymize()
	if isomorphic(a, mu) {
		t.Fatal("oracle: anonymizing kept the view")
	}
	if bytes.Equal(a.BinKey(), b1) || a.Equal(mu) {
		t.Fatal("anonymized view reused the identified key cache")
	}
	if !bytes.Equal(mu.BinKey(), b1) {
		t.Fatal("original key changed after Anonymize")
	}

	// An already-anonymous view returns itself from Anonymize; the shared
	// cache is then genuinely the same view's cache, which is sound.
	if a.Anonymize() != a {
		t.Fatal("anonymous view should Anonymize to itself")
	}
}

// TestIDOrderSortCutoff exercises both sides of the idOrder crossover (the
// insertion sort below the cutoff, sort.Slice above): keys must stay
// canonical under host renumbering at both sizes.
func TestIDOrderSortCutoff(t *testing.T) {
	for _, leaves := range []int{8, 40} {
		star := func(order []int) (*graph.Graph, graph.IDs, []string, int) {
			g := graph.New(leaves + 1)
			for _, v := range order {
				if err := g.AddEdge(0, v); err != nil {
					t.Fatal(err)
				}
			}
			ids := make(graph.IDs, leaves+1)
			labels := make([]string, leaves+1)
			ids[0] = 1000
			labels[0] = "c"
			for v := 1; v <= leaves; v++ {
				ids[v] = 2000 + v
				labels[v] = fmt.Sprintf("leaf%d", v%5)
			}
			return g, ids, labels, leaves + 1
		}
		asc := make([]int, leaves)
		desc := make([]int, leaves)
		for i := 0; i < leaves; i++ {
			asc[i] = i + 1
			desc[i] = leaves - i
		}
		gA, idsA, labelsA, n := star(asc)
		gD, idsD, labelsD, _ := star(desc)
		muA := view.MustExtract(gA, graph.DefaultPorts(gA), idsA, labelsA, n, 0, 1)
		muD := view.MustExtract(gD, graph.DefaultPorts(gD), idsD, labelsD, n, 0, 1)
		// Edge insertion order changed the port assignment; star ports from
		// the center are the adjacency positions, so DefaultPorts gives the
		// ascending star port p to neighbor with id 2000+p+1 and the
		// descending star port p to id 2000+leaves-p. Those are genuinely
		// different views; equality must hold only after aligning ports.
		ptAligned := graph.DefaultPorts(gA)
		muAligned := view.MustExtract(gA, ptAligned, idsA, labelsA, n, 0, 1)
		if !isomorphic(muAligned, muA) || !bytes.Equal(muAligned.BinKey(), muA.BinKey()) {
			t.Fatalf("leaves=%d: identical extraction disagrees with itself", leaves)
		}
		if isomorphic(muA, muD) != bytes.Equal(muA.BinKey(), muD.BinKey()) {
			t.Fatalf("leaves=%d: oracle and key disagree on the port-permuted pair", leaves)
		}
	}
}

// FuzzBinKeyKeyAgreement cross-checks the three equality notions — the
// isomorphism oracle, the canonical key, and Equal — on fuzz-built view
// pairs, including anonymous and duplicate-identifier cases.
func FuzzBinKeyKeyAgreement(f *testing.F) {
	f.Add([]byte{3, 0xff, 1, 0, 1, 2, 3, 4})
	f.Add([]byte{4, 0x3f, 2, 1, 0, 0, 0, 0, 9, 9})
	f.Add([]byte{5, 0xaa, 1, 2, 3, 1, 4, 1, 5, 9, 2, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		n := 2 + int(data[0])%4
		var pairs [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				pairs = append(pairs, [2]int{u, v})
			}
		}
		mask := int(data[1])
		g := graph.New(n)
		for i, e := range pairs {
			if mask&(1<<uint(i%8)) != 0 || i == 0 {
				if err := g.AddEdge(e[0], e[1]); err != nil {
					t.Fatal(err)
				}
			}
		}
		r := int(data[2]) % 3
		mode := int(data[3]) % 3
		var ids graph.IDs
		switch mode {
		case 1:
			ids = graph.SequentialIDs(n)
		case 2:
			ids = make(graph.IDs, n)
			for v := 0; v < n; v++ {
				// Deliberately collision-heavy identifiers.
				ids[v] = 1 + int(data[(4+v)%len(data)])%3
			}
		}
		labels := make([]string, n)
		for v := 0; v < n; v++ {
			labels[v] = string(rune('a' + int(data[(5+v)%len(data)])%3))
		}
		pt := graph.DefaultPorts(g)
		c1 := int(data[4]) % n
		c2 := int(data[len(data)-1]) % n
		v1 := view.MustExtract(g, pt, ids, labels, n, c1, r)
		v2 := view.MustExtract(g, pt, ids, labels, n, c2, r)

		iso := isomorphic(v1, v2)
		binEq := bytes.Equal(v1.BinKey(), v2.BinKey())
		eq := v1.Equal(v2)
		if iso != binEq || binEq != eq {
			t.Fatalf("equality notions disagree: oracle=%v key=%v equal=%v\nv1=%v\nv2=%v",
				iso, binEq, eq, v1, v2)
		}
		// Determinism across a cache-free recomputation.
		if !bytes.Equal(v1.Clone().BinKey(), v1.BinKey()) {
			t.Fatal("key is not deterministic under Clone")
		}
		// The anonymous projections must agree with each other the same way.
		a1, a2 := v1.Anonymize(), v2.Anonymize()
		aiso := isomorphic(a1, a2)
		abinEq := bytes.Equal(a1.BinKey(), a2.BinKey())
		if aiso != abinEq {
			t.Fatalf("anonymous equality notions disagree: oracle=%v key=%v", aiso, abinEq)
		}
	})
}

// BenchmarkIDOrderCrossover measures identifier-ordered canonicalization at
// view sizes straddling the insertion-sort/sort.Slice cutoff (24).
func BenchmarkIDOrderCrossover(b *testing.B) {
	for _, leaves := range []int{8, 16, 24, 32, 64, 128} {
		g := graph.New(leaves + 1)
		for v := 1; v <= leaves; v++ {
			if err := g.AddEdge(0, v); err != nil {
				b.Fatal(err)
			}
		}
		pt := graph.DefaultPorts(g)
		ids := graph.SequentialIDs(g.N())
		labels := make([]string, g.N())
		mu := view.MustExtract(g, pt, ids, labels, g.N(), 0, 1)
		b.Run(fmt.Sprintf("n=%d", leaves+1), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = mu.Clone().BinKey()
			}
		})
	}
}
