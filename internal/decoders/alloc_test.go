//go:build !race

package decoders

import (
	"testing"

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
