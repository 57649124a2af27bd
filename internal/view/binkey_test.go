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
		for p0, k := range a.Ports.Rows[i] {
			if k < 0 || f[k] < 0 {
				continue
			}
			fk := f[k]
			pOut, ok := b.Port(j, fk)
			aOut := p0 + 1
			aIn, _ := a.Port(k, i)
			bIn, _ := b.Port(fk, j)
			if !ok || pOut != aOut || bIn != aIn {
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
		{7, 7, 3, 5}, // duplicate nonzero identifiers
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
// produce identical keys (the property the port order guarantees), and the
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

// ringView hand-builds a radius-2 anonymous view: the center reaches its
// six unlabeled neighbors (local nodes 1..6) through ports 1..6, and each
// neighbor reaches the center through its port 1. ring lists directed edges
// among the neighbors; for each (a, b), a reaches b through its port 2 and
// b reaches a through its port 3. When ring is a union of directed cycles
// covering every neighbor once, all six neighbors look alike locally —
// same distance, label, degree, and port pattern — and only the center's
// ports tell them apart. The view is the radius-2 view of node 0 of
// ringHost(ring).
func ringView(ring [][2]int) *view.View {
	v := &view.View{
		Radius: 2,
		Dist:   []int{0, 1, 1, 1, 1, 1, 1},
		Ports:  &view.PortRows{Rows: make([][]int, 7)},
		IDs:    make([]int, 7),
		Labels: make([]string, 7),
		NBound: 7,
	}
	setPort := func(a, p, b int) {
		row := v.Ports.Rows[a]
		for len(row) < p {
			row = append(row, -1)
		}
		row[p-1] = b
		v.Ports.Rows[a] = row
	}
	link := func(a, b, pa, pb int) {
		setPort(a, pa, b)
		setPort(b, pb, a)
	}
	for i := 1; i <= 6; i++ {
		link(view.Center, i, i, 1)
	}
	for _, e := range ring {
		link(e[0], e[1], 2, 3)
	}
	return v
}

// ringHost returns the host graph ringView(ring) is the view of: node 0
// is the center and nodes 1..6 its neighbors, with the same edges and
// ports.
func ringHost(t *testing.T, ring [][2]int) (*graph.Graph, *graph.Ports) {
	t.Helper()
	g := graph.New(7)
	rows := make([][]int, 7) // rows[v][p-1]: the neighbor behind port p
	add := func(a, b int) {
		if err := g.AddEdge(a, b); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 6; i++ {
		add(view.Center, i)
		rows[view.Center] = append(rows[view.Center], i)
		rows[i] = []int{view.Center, -1, -1}
	}
	for _, e := range ring {
		add(e[0], e[1])
		rows[e[0]][1], rows[e[1]][2] = e[1], e[0]
	}
	perm := make([][]int, 7)
	for v, row := range rows {
		for _, w := range row {
			perm[v] = append(perm[v], slices.Index(g.Neighbors(v), w))
		}
	}
	pt, err := graph.PortsFromPerm(g, perm)
	if err != nil {
		t.Fatal(err)
	}
	return g, pt
}

// relabel returns v with local node i renumbered perm[i]; perm must fix
// the center.
func relabel(v *view.View, perm []int) *view.View {
	w := &view.View{
		Radius: v.Radius,
		Dist:   make([]int, v.N()),
		Ports:  &view.PortRows{Rows: make([][]int, v.N())},
		IDs:    make([]int, v.N()),
		Labels: make([]string, v.N()),
		NBound: v.NBound,
	}
	for i := range v.Dist {
		pi := perm[i]
		w.Dist[pi], w.IDs[pi], w.Labels[pi] = v.Dist[i], v.IDs[i], v.Labels[i]
		for _, j := range v.Ports.Rows[i] {
			if j >= 0 {
				j = perm[j]
			}
			w.Ports.Rows[pi] = append(w.Ports.Rows[pi], j)
		}
	}
	return w
}

// TestBinKeyPermutationSearch checks the key on views whose nodes are
// locally alike: ringView's hexagon and two triangles (each neighbor's
// port 2 leads on around its cycle), and the hexagon traversed the other
// way. Under random renumberings of the local nodes the key must stay
// invariant, agree with the isomorphism oracle against every base view,
// and equal the host template's skeleton with the labels spliced in
// (Skeleton.AppendKey) into a non-empty buffer.
func TestBinKeyPermutationSearch(t *testing.T) {
	rings := [][][2]int{
		{{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 1}}, // hexagon
		{{2, 1}, {3, 2}, {4, 3}, {5, 4}, {6, 5}, {1, 6}}, // reversed
		{{1, 2}, {2, 3}, {3, 1}, {4, 5}, {5, 6}, {6, 4}}, // triangles
	}
	bases := make([]*view.View, len(rings))
	for i, ring := range rings {
		bases[i] = ringView(ring)
	}
	for i, a := range bases {
		for _, b := range bases[i+1:] {
			if isomorphic(a, b) {
				t.Fatal("oracle: two different rings are isomorphic")
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	var ex view.Extractor
	var sk view.Skeleton
	labels := make([]string, 7)
	for bi, base := range bases {
		g, pt := ringHost(t, rings[bi])
		tpl, err := ex.Template(g, pt, nil, g.N(), view.Center, 2)
		if err != nil {
			t.Fatal(err)
		}
		tpl.SkeletonInto(&sk)
		for trial := 0; trial < 20; trial++ {
			perm := []int{view.Center, 1, 2, 3, 4, 5, 6}
			rng.Shuffle(6, func(i, j int) { perm[i+1], perm[j+1] = perm[j+1], perm[i+1] })
			mu := relabel(base, perm)
			if !bytes.Equal(mu.BinKey(), base.BinKey()) {
				t.Fatalf("perm %v: renumbering changed the key", perm)
			}
			prefix := []byte("prefix")
			appended := sk.AppendKey(prefix, labels)
			if !bytes.Equal(appended[:len(prefix)], []byte("prefix")) || !bytes.Equal(appended[len(prefix):], mu.BinKey()) {
				t.Fatalf("perm %v: spliced skeleton key and BinKey disagree", perm)
			}
			for _, other := range bases {
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

// TestIDOrderSortCutoff keys stars with 8 and 40 leaves, with identifiers
// and anonymously, so the center's degree exceeds any small neighbor
// buffer. Keys must be invariant under renumbering of the local nodes, and
// agree with the oracle on stars whose hosts or center ports are numbered
// the other way round.
func TestIDOrderSortCutoff(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, leaves := range []int{8, 40} {
		for _, withIDs := range []bool{true, false} {
			// star gives leaf k (1..leaves) label and identifier by k and
			// puts it at host node k, or leaves+1-k when flipHosts; the
			// center reaches leaf k through port k, or leaves+1-k when
			// flipPorts.
			star := func(flipHosts, flipPorts bool) *view.View {
				g := graph.New(leaves + 1)
				host := func(k int) int {
					if flipHosts {
						return leaves + 1 - k
					}
					return k
				}
				var ids graph.IDs
				if withIDs {
					ids = make(graph.IDs, leaves+1)
					ids[0] = 1000
				}
				labels := make([]string, leaves+1)
				labels[0] = "c"
				for k := 1; k <= leaves; k++ {
					if err := g.AddEdge(0, host(k)); err != nil {
						t.Fatal(err)
					}
					if withIDs {
						ids[host(k)] = 2000 + k
					}
					labels[host(k)] = fmt.Sprintf("leaf%d", k%5)
				}
				// perm[0][p-1] is the rank among the center's neighbors,
				// that is the host index minus one, of the leaf behind port p.
				perm := make([][]int, leaves+1)
				perm[0] = make([]int, leaves)
				for p := 1; p <= leaves; p++ {
					k := p
					if flipPorts {
						k = leaves + 1 - p
					}
					perm[0][p-1] = host(k) - 1
				}
				for v := 1; v <= leaves; v++ {
					perm[v] = []int{0}
				}
				pt, err := graph.PortsFromPerm(g, perm)
				if err != nil {
					t.Fatal(err)
				}
				return view.MustExtract(g, pt, ids, labels, leaves+1, 0, 1)
			}
			base := star(false, false)
			for trial := 0; trial < 5; trial++ {
				perm := make([]int, leaves+1)
				for i := range perm {
					perm[i] = i
				}
				rng.Shuffle(leaves, func(i, j int) { perm[i+1], perm[j+1] = perm[j+1], perm[i+1] })
				if mu := relabel(base, perm); !bytes.Equal(mu.BinKey(), base.BinKey()) {
					t.Fatalf("leaves=%d ids=%v: renumbering changed the key", leaves, withIDs)
				}
			}
			for _, c := range []struct {
				flipHosts, flipPorts, iso bool
			}{{true, false, true}, {false, true, false}, {true, true, false}} {
				mu := star(c.flipHosts, c.flipPorts)
				iso := isomorphic(mu, base)
				if iso != c.iso || iso != bytes.Equal(mu.BinKey(), base.BinKey()) {
					t.Fatalf("leaves=%d ids=%v flipHosts=%v flipPorts=%v: oracle %v, equal keys %v, want %v",
						leaves, withIDs, c.flipHosts, c.flipPorts, iso, bytes.Equal(mu.BinKey(), base.BinKey()), c.iso)
				}
			}
		}
	}
}

// FuzzBinKeyKeyAgreement cross-checks the three equality notions — the
// isomorphism oracle, the canonical key, and Equal — on fuzz-built view
// pairs, including anonymous and duplicate-identifier cases, and checks
// that each view's template skeleton with its labels spliced in
// (Skeleton.AppendKey) is its canonical key. data[2]/3 picks the port
// numbering: 0 is DefaultPorts, anything else a numbering drawn from the
// fuzz bytes.
func FuzzBinKeyKeyAgreement(f *testing.F) {
	f.Add([]byte{3, 0xff, 1, 0, 1, 2, 3, 4})
	f.Add([]byte{4, 0x3f, 2, 1, 0, 0, 0, 0, 9, 9})
	f.Add([]byte{5, 0xaa, 1, 2, 3, 1, 4, 1, 5, 9, 2, 6})
	f.Add([]byte{5, 0xff, 4, 0, 1, 2, 3, 4, 7, 1, 8, 2})
	f.Add([]byte{7, 0x3f, 23, 1, 2, 0, 1, 0, 6, 3, 5, 1})
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
		if data[2]/3 != 0 {
			perm := make([][]int, n)
			for v := range perm {
				perm[v] = make([]int, g.Degree(v))
				for i := range perm[v] {
					perm[v][i] = i
				}
				for i := len(perm[v]) - 1; i > 0; i-- {
					j := int(data[(7*v+i+int(data[2]))%len(data)]) % (i + 1)
					perm[v][i], perm[v][j] = perm[v][j], perm[v][i]
				}
			}
			var err error
			if pt, err = graph.PortsFromPerm(g, perm); err != nil {
				t.Fatal(err)
			}
		}
		c1 := int(data[4]) % n
		c2 := int(data[len(data)-1]) % n
		v1 := view.MustExtract(g, pt, ids, labels, n, c1, r)
		v2 := view.MustExtract(g, pt, ids, labels, n, c2, r)

		// The spliced skeleton key is the key, at both centers.
		var ex view.Extractor
		var sk view.Skeleton
		for _, v := range []struct {
			mu     *view.View
			center int
		}{{v1, c1}, {v2, c2}} {
			tpl, err := ex.Template(g, pt, ids, n, v.center, r)
			if err != nil {
				t.Fatal(err)
			}
			tpl.SkeletonInto(&sk)
			if !bytes.Equal(sk.AppendKey(nil, labels), v.mu.BinKey()) {
				t.Fatalf("spliced skeleton key differs from BinKey at center %d: %v", v.center, v.mu)
			}
		}

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
