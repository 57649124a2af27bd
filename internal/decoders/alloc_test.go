//go:build !race

package decoders

import (
	"testing"

	"hidinglcp/internal/core"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/view"
)

// TestDegreeOneKDecideAllocs pins DegreeOneK's Decide at zero allocations
// on well-formed certificates. The race detector instruments allocations,
// so this runs only in plain builds.
func TestDegreeOneKDecideAllocs(t *testing.T) {
	const k = 3
	g := graph.Star(5)
	d := DegreeOneK(k).Decoder
	for _, tc := range []struct {
		name   string
		labels []string
	}{
		// ⊤ at the center: the pendant ⊥ plus colored leaves.
		{"top", []string{DegOneKLabel(k, -2), DegOneKLabel(k, -1), DegOneKLabel(k, 0), DegOneKLabel(k, 1), DegOneKLabel(k, 0)}},
		// A colored center with one ⊤ among colored leaves.
		{"colored", []string{DegOneKLabel(k, 2), DegOneKLabel(k, -2), DegOneKLabel(k, 0), DegOneKLabel(k, 1), DegOneKLabel(k, 0)}},
	} {
		mu := view.MustExtract(g, graph.DefaultPorts(g), nil, tc.labels, g.N(), 0, 1)
		if !d.Decide(mu) {
			t.Fatalf("%s: Decide rejected the star view", tc.name)
		}
		if n := testing.AllocsPerRun(100, func() { d.Decide(mu) }); n != 0 {
			t.Errorf("%s: Decide allocates %.1f objects per call, want 0", tc.name, n)
		}
	}
}

// TestMelonShatterDecideAllocs pins the Watermelon and Shatter decoders at
// zero allocations at every node of a certified instance, on the accepting
// views and on the views where the center's certificate is replaced by a
// malformed one (the reject path builds no error).
func TestMelonShatterDecideAllocs(t *testing.T) {
	for _, tc := range []struct {
		s core.Scheme
		g *graph.Graph
	}{
		{Watermelon(), graph.MustWatermelon([]int{2, 2, 2})},
		{Shatter(), graph.Spider([]int{2, 2, 2})},
		{ShatterLiteral(), graph.Path(7)},
	} {
		inst := core.NewInstance(tc.g)
		labels, err := tc.s.Prover.Certify(inst)
		if err != nil {
			t.Fatal(err)
		}
		for v := range labels {
			mu := view.MustExtract(inst.G, inst.Prt, inst.IDs, labels, inst.NBound, v, 1)
			if !tc.s.Decoder.Decide(mu) {
				t.Fatalf("%s: Decide rejected the certified view of node %d", tc.s.Name, v)
			}
			bad := append([]string(nil), labels...)
			bad[v] = labels[v] + ":9"
			muBad := view.MustExtract(inst.G, inst.Prt, inst.IDs, bad, inst.NBound, v, 1)
			if tc.s.Decoder.Decide(muBad) {
				t.Fatalf("%s: Decide accepted a malformed certificate at node %d", tc.s.Name, v)
			}
			for _, m := range []*view.View{mu, muBad} {
				if n := testing.AllocsPerRun(20, func() { tc.s.Decoder.Decide(m) }); n != 0 {
					t.Errorf("%s: Decide at node %d allocates %.1f objects per call, want 0", tc.s.Name, v, n)
				}
			}
		}
	}
}
