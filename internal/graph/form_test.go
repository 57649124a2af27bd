package graph_test

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	. "hidinglcp/internal/graph"
	"hidinglcp/internal/graph/graphtest"
)

// network is a port-numbered network for the canonical-form tests.
type network struct {
	g      *Graph
	pt     *Ports
	ids    IDs
	nBound int
}

func (a network) form(t *testing.T) []byte {
	t.Helper()
	f, ok := a.pt.AppendForm(nil, a.ids, a.nBound)
	if !ok {
		t.Fatalf("no form for connected network %v", a.g)
	}
	return f
}

func randomPorts(t *testing.T, g *Graph, rng *rand.Rand) *Ports {
	t.Helper()
	perm := make([][]int, g.N())
	for v := range perm {
		perm[v] = rng.Perm(g.Degree(v))
	}
	pt, err := PortsFromPerm(g, perm)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

// randomNetwork draws a connected G(n, 1/2) graph under a random port
// numbering, anonymous or with random identifiers in [1, NBound].
func randomNetwork(t *testing.T, n int, rng *rand.Rand) network {
	g := graphtest.ConnectedGNP(n, 0.5, rng)
	a := network{g: g, pt: randomPorts(t, g, rng), nBound: n + rng.Intn(2)}
	if rng.Intn(2) == 0 {
		a.ids = make(IDs, n)
		for v, id := range rng.Perm(a.nBound)[:n] {
			a.ids[v] = id + 1
		}
	}
	return a
}

// relabel returns the image of a under the node bijection phi, with ports
// and identifiers carried along: a network isomorphic to a.
func relabel(t *testing.T, a network, phi []int) network {
	t.Helper()
	n := a.g.N()
	g := New(n)
	for _, e := range a.g.Edges() {
		if err := g.AddEdge(phi[e[0]], phi[e[1]]); err != nil {
			t.Fatal(err)
		}
	}
	perm := make([][]int, n)
	for v := 0; v < n; v++ {
		row := make([]int, a.pt.DegreeOf(v))
		for p := range row {
			w, err := a.pt.NeighborAt(v, p+1)
			if err != nil {
				t.Fatal(err)
			}
			row[p] = slices.Index(g.Neighbors(phi[v]), phi[w])
		}
		perm[phi[v]] = row
	}
	pt, err := PortsFromPerm(g, perm)
	if err != nil {
		t.Fatal(err)
	}
	b := network{g: g, pt: pt, nBound: a.nBound}
	if a.ids != nil {
		b.ids = make(IDs, n)
		for v, id := range a.ids {
			b.ids[phi[v]] = id
		}
	}
	return b
}

// bruteIsomorphic searches every node bijection phi for one with
// port p of phi(v) leading to phi(port p of v) at every node, which
// preserves edges and the ports at both of their ends, and with equal
// identifiers at v and phi(v); NBound and anonymity must agree.
func bruteIsomorphic(a, b network) bool {
	n := a.g.N()
	if n != b.g.N() || a.nBound != b.nBound || (a.ids == nil) != (b.ids == nil) {
		return false
	}
	phi := make([]int, n)
	used := make([]bool, n)
	var rec func(v int) bool
	rec = func(v int) bool {
		if v == n {
			for u := 0; u < n; u++ {
				if a.pt.DegreeOf(u) != b.pt.DegreeOf(phi[u]) {
					return false
				}
				for p := 1; p <= a.pt.DegreeOf(u); p++ {
					w, _ := a.pt.NeighborAt(u, p)
					x, _ := b.pt.NeighborAt(phi[u], p)
					if x != phi[w] {
						return false
					}
				}
			}
			return true
		}
		for x := 0; x < n; x++ {
			if used[x] || (a.ids != nil && a.ids[v] != b.ids[x]) {
				continue
			}
			phi[v], used[x] = x, true
			if rec(v + 1) {
				return true
			}
			used[x] = false
		}
		return false
	}
	return rec(0)
}

// TestAppendFormMatchesBruteForce checks AppendForm against a search over
// all node permutations: on random connected networks of at most 6 nodes,
// two forms must be equal exactly when a port-preserving isomorphism
// exists. The pairs
// are isomorphic copies, copies with their ports redrawn, copies with a
// different NBound or anonymity, and independent draws.
func TestAppendFormMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	iso, nonIso := 0, 0
	for trial := 0; trial < 600; trial++ {
		n := 1 + rng.Intn(6)
		a := randomNetwork(t, n, rng)
		var b network
		switch trial % 4 {
		case 0:
			b = relabel(t, a, rng.Perm(n))
		case 1:
			b = relabel(t, a, rng.Perm(n))
			b.pt = randomPorts(t, b.g, rng)
		case 2:
			b = relabel(t, a, rng.Perm(n))
			if rng.Intn(2) == 0 {
				b.nBound++
			} else if b.ids != nil {
				b.ids = nil
			} else {
				b.ids = SequentialIDs(n)
			}
		default:
			b = randomNetwork(t, n, rng)
		}
		want := bruteIsomorphic(a, b)
		if got := bytes.Equal(a.form(t), b.form(t)); got != want {
			t.Fatalf("trial %d: forms equal = %v, brute-force isomorphic = %v\na = %v ids %v N %d\nb = %v ids %v N %d",
				trial, got, want, a.g, a.ids, a.nBound, b.g, b.ids, b.nBound)
		}
		if want {
			iso++
		} else {
			nonIso++
		}
	}
	if iso < 100 || nonIso < 100 {
		t.Errorf("weak coverage: %d isomorphic and %d non-isomorphic pairs", iso, nonIso)
	}
}

// TestAppendFormAppends checks that AppendForm extends dst in place, and
// that a network with no form leaves dst unextended.
func TestAppendFormAppends(t *testing.T) {
	g := MustCycle(5)
	a := network{g: g, pt: DefaultPorts(g), ids: SequentialIDs(5), nBound: 5}
	prefix := []byte("prefix")
	got, ok := a.pt.AppendForm(slices.Clone(prefix), a.ids, a.nBound)
	if !ok || !bytes.Equal(got, append(slices.Clone(prefix), a.form(t)...)) {
		t.Errorf("AppendForm after a prefix = %q, %v; want the prefix then the form", got, ok)
	}
	two := graphtest.DisjointUnion(Path(2), Path(2))
	if got, ok := DefaultPorts(two).AppendForm(slices.Clone(prefix), nil, 4); ok || !bytes.Equal(got, prefix) {
		t.Errorf("disconnected network: AppendForm = %q, %v; want the prefix, false", got, ok)
	}
	if got, ok := a.pt.AppendForm(slices.Clone(prefix), SequentialIDs(4), 5); ok || !bytes.Equal(got, prefix) {
		t.Errorf("short identifier assignment: AppendForm = %q, %v; want the prefix, false", got, ok)
	}
}
