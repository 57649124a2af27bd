package view

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hidinglcp/internal/graph"
	"hidinglcp/internal/graph/graphtest"
)

// TestTemplateShapeDeterminesClass is the property behind the nbhd key
// skeletons. Over random connected graphs under random port numberings, at
// radius 1 and 2, anonymous and with identifiers: one reused Skeleton
// lists each template's hosts center first, and splicing a labeling into
// it gives exactly the BinKey of the instantiated view. The labels
// include the empty string, multi-byte runes and a label whose length
// varint takes two bytes.
func TestTemplateShapeDeterminesClass(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabet := []string{"", "a", "bc", "é世", strings.Repeat("z", 200)}
	for _, withIDs := range []bool{false, true} {
		t.Run(fmt.Sprintf("ids=%v", withIDs), func(t *testing.T) {
			var ex Extractor
			var sk Skeleton
			var key []byte
			for trial := 0; trial < 60; trial++ {
				n := 3 + rng.Intn(4)
				g := graphtest.ConnectedGNP(n, 0.5, rng)
				pt, err := graph.PortsFromPerm(g, randomPortPerm(g, rng))
				if err != nil {
					t.Fatal(err)
				}
				var ids graph.IDs
				if withIDs {
					ids = graph.IDs(rng.Perm(n + 1)[:n])
					for i := range ids {
						ids[i]++
					}
				}
				for r := 1; r <= 2; r++ {
					for v := 0; v < n; v++ {
						tpl, err := ex.Template(g, pt, ids, n+1, v, r)
						if err != nil {
							t.Fatal(err)
						}
						tpl.SkeletonInto(&sk)
						if len(sk.hosts) != tpl.N() || sk.hosts[0] != v {
							t.Fatalf("graph %v node %d r=%d: canonical hosts %v, want %d nodes starting at the center", g, v, r, sk.hosts, tpl.N())
						}
						for p := 0; p < 3; p++ {
							labels := make([]string, n)
							for i := range labels {
								labels[i] = alphabet[rng.Intn(len(alphabet))]
							}
							key = sk.AppendKey(key[:0], labels)
							if want := tpl.Instantiate(labels).BinKey(); !bytes.Equal(key, want) {
								t.Fatalf("graph %v node %d r=%d: spliced key differs from BinKey", g, v, r)
							}
						}
					}
				}
			}
		})
	}
}

// randomPortPerm draws a uniformly random port numbering of g in the form
// graph.PortsFromPerm takes.
func randomPortPerm(g *graph.Graph, rng *rand.Rand) [][]int {
	perm := make([][]int, g.N())
	for v := range perm {
		perm[v] = rng.Perm(g.Degree(v))
	}
	return perm
}
