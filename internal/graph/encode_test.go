package graph_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	// An external test package, since graphtest imports graph.
	. "hidinglcp/internal/graph"
	"hidinglcp/internal/graph/graphtest"
)

func TestGraph6RoundTrip(t *testing.T) {
	corpus := []*Graph{
		New(0), New(1), New(5),
		Path(4), MustCycle(5), Complete(4), Petersen(), Grid(3, 4),
		graphtest.CompleteBipartite(2, 3), Star(7),
	}
	for _, g := range corpus {
		s, err := graphtest.Graph6(g)
		if err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		back, err := graphtest.ParseGraph6(s)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		if !g.Equal(back) {
			t.Errorf("round trip lost structure: %v -> %q -> %v", g, s, back)
		}
	}
}

func TestGraph6KnownValues(t *testing.T) {
	// The canonical examples from the format specification: the 5-cycle
	// 0-1-2-3-4-0 encodes as "DQc" ... verify against a hand-computed
	// value: upper-triangle column-order bits for C5 are
	// (01)1 (02)0 (12)1 (03)0 (13)0 (23)1 (04)1 (14)0 (24)0 (34)1.
	g := MustCycle(5)
	s, err := graphtest.Graph6(g)
	if err != nil {
		t.Fatal(err)
	}
	// n=5 -> 'D'; bits 101001 -> 41+63=104='h'; 1001(00) -> 36+63=99='c'.
	if s != "Dhc" {
		t.Errorf("C5 graph6 = %q, want %q", s, "Dhc")
	}
}

func TestParseGraph6Errors(t *testing.T) {
	bad := []string{"", "D", "Dhcc", string(rune(1)), "D\x01\x01", "Dhd"}
	for _, s := range bad {
		if _, err := graphtest.ParseGraph6(s); err == nil {
			t.Errorf("graphtest.ParseGraph6(%q) succeeded, want error", s)
		}
	}
}

// FuzzParseGraph6 round-trips every accepted string: it must decode to a
// graph whose encoding is the same string. Malformed input must error, not
// panic.
func FuzzParseGraph6(f *testing.F) {
	for _, s := range []string{"", "?", "@", "Dhc", "Dhd", "Dhcc", "D", "}", "~", "D\x01\x01", "Ihc?_???"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		g, err := graphtest.ParseGraph6(s)
		if err != nil {
			return
		}
		back, err := graphtest.Graph6(g)
		if err != nil {
			t.Fatalf("%q decoded to a graph Graph6 rejects: %v", s, err)
		}
		if back != s {
			t.Fatalf("%q decoded to a graph that encodes as %q", s, back)
		}
	})
}

func TestGraph6TooLarge(t *testing.T) {
	if _, err := graphtest.Graph6(New(63)); err == nil {
		t.Error("graph6 of 63 nodes accepted")
	}
}

// Property: graph6 round-trips on random graphs.
func TestGraph6RoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := GNP(2+rng.Intn(12), 0.4, rng)
		s, err := graphtest.Graph6(g)
		if err != nil {
			return false
		}
		back, err := graphtest.ParseGraph6(s)
		if err != nil {
			return false
		}
		return g.Equal(back)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCanonicalGraph6(t *testing.T) {
	// Isomorphic graphs share a canonical form; non-isomorphic ones don't.
	a := Path(4)
	b := MustFromEdges(4, [][2]int{{2, 0}, {0, 3}, {3, 1}}) // relabeled P4
	c := Star(4)
	ca, err := canonicalGraph6(a)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := canonicalGraph6(b)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := canonicalGraph6(c)
	if err != nil {
		t.Fatal(err)
	}
	if ca != cb {
		t.Errorf("isomorphic paths canonicalize differently: %q vs %q", ca, cb)
	}
	if ca == cc {
		t.Error("path and star share a canonical form")
	}
	if _, err := canonicalGraph6(New(9)); err == nil {
		t.Error("canonical form for 9 nodes accepted")
	}
}

// Property: canonical form is invariant under random relabeling.
func TestCanonicalGraph6Property(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(4)
		g := GNP(n, 0.5, rng)
		perm := rng.Perm(n)
		h := New(n)
		for _, e := range g.Edges() {
			if err := h.AddEdge(perm[e[0]], perm[e[1]]); err != nil {
				return false
			}
		}
		cg, err1 := canonicalGraph6(g)
		ch, err2 := canonicalGraph6(h)
		return err1 == nil && err2 == nil && cg == ch
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSortedDegrees(t *testing.T) {
	// Spider(2,1): center (deg 2), a 2-edge leg (middle deg 2, tip deg 1),
	// and a 1-edge leg (tip deg 1).
	g := Spider([]int{2, 1})
	got := g.SortedDegrees()
	want := []int{1, 1, 2, 2}
	if len(got) != len(want) {
		t.Fatalf("SortedDegrees = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortedDegrees = %v, want %v", got, want)
		}
	}
}

// canonicalGraph6 returns the lexicographically smallest graph6 encoding
// over all node permutations — a canonical form usable for isomorphism
// dedup of the small graphs this library enumerates. Factorial cost; keep
// n small (it refuses n > 8).
func canonicalGraph6(g *Graph) (string, error) {
	if g.N() > 8 {
		return "", fmt.Errorf("canonical form by permutation search limited to 8 nodes, have %d", g.N())
	}
	perm := make([]int, g.N())
	for i := range perm {
		perm[i] = i
	}
	best := ""
	var rec func(i int) error
	rec = func(i int) error {
		if i == g.N() {
			h := New(g.N())
			for _, e := range g.Edges() {
				if err := h.AddEdge(perm[e[0]], perm[e[1]]); err != nil {
					return err
				}
			}
			s, err := graphtest.Graph6(h)
			if err != nil {
				return err
			}
			if best == "" || s < best {
				best = s
			}
			return nil
		}
		for j := i; j < g.N(); j++ {
			perm[i], perm[j] = perm[j], perm[i]
			if err := rec(i + 1); err != nil {
				return err
			}
			perm[i], perm[j] = perm[j], perm[i]
		}
		return nil
	}
	if err := rec(0); err != nil {
		return "", err
	}
	return best, nil
}
