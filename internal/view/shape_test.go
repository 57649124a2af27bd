package view

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"hidinglcp/internal/graph"
	"hidinglcp/internal/graph/graphtest"
)

// TestTemplateShapeDeterminesClass is the property behind the nbhd shape
// memo. Over random connected graphs under random port numberings, at
// radius 1 and 2, anonymous and with distinct identifiers: every template
// Extract builds has a discrete label-free refinement, and two labeled
// views get equal canonical keys exactly when their templates have equal
// shapes and they carry the same labels at the same canonical positions.
func TestTemplateShapeDeterminesClass(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabet := []string{"a", "b", "c"}
	type shaped struct {
		tpl   *Template
		hosts []int
		hostN int
	}
	for _, withIDs := range []bool{false, true} {
		t.Run(fmt.Sprintf("ids=%v", withIDs), func(t *testing.T) {
			byShape := map[string][]shaped{}
			var ex Extractor
			for trial := 0; trial < 60; trial++ {
				n := 3 + rng.Intn(4)
				g := graphtest.ConnectedGNP(n, 0.5, rng)
				pt, err := graph.PortsFromPerm(g, randomPortPerm(g, rng))
				if err != nil {
					t.Fatal(err)
				}
				var ids graph.IDs
				if withIDs {
					// Identifiers from a small range, so shapes still
					// repeat across graphs.
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
						key, hosts, ok := tpl.AppendShape(nil, nil)
						if !ok {
							t.Fatalf("graph %v node %d r=%d: label-free refinement is not discrete", g, v, r)
						}
						if len(hosts) != tpl.N() || hosts[0] != v {
							t.Fatalf("graph %v node %d r=%d: canonical hosts %v, want %d nodes starting at the center", g, v, r, hosts, tpl.N())
						}
						byShape[string(key)] = append(byShape[string(key)], shaped{tpl, hosts, n})
					}
				}
			}

			// classOf maps (shape, labels in canonical order) to the
			// canonical key of every view carrying them; keyOf is its
			// inverse and must stay a function too.
			classOf := map[string]string{}
			keyOf := map[string]string{}
			shared := 0
			for shape, ts := range byShape {
				if len(ts) > 1 {
					shared++
				}
				for p := 0; p < 3; p++ {
					pattern := make([]string, len(ts[0].hosts))
					for i := range pattern {
						pattern[i] = alphabet[rng.Intn(len(alphabet))]
					}
					pk := shape + "\x00" + fmt.Sprint(pattern)
					for _, s := range ts {
						labels := make([]string, s.hostN)
						for k, w := range s.hosts {
							labels[w] = pattern[k]
						}
						key := string(s.tpl.Instantiate(labels).BinKey())
						if prev, ok := classOf[pk]; ok && prev != key {
							t.Fatalf("equal shapes under equal canonical labels %v got different keys", pattern)
						}
						classOf[pk] = key
						if prev, ok := keyOf[key]; ok && prev != pk {
							t.Fatal("views with different (shape, canonical labels) collided on one key")
						}
						keyOf[key] = pk
					}
				}
			}
			t.Logf("%d shapes, %d shared", len(byShape), shared)
			if shared == 0 {
				t.Fatal("no two templates shared a shape; the property was never exercised")
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

// TestAppendShapeNonDiscrete covers the branch Extract never reaches: a
// center whose six neighbors share one port, so the label-free refinement
// leaves them in one class. AppendShape must decline and leave its buffers
// as they were.
func TestAppendShapeNonDiscrete(t *testing.T) {
	tpl := &Template{
		radius: 1,
		nBound: 7,
		adj:    [][]int{{1, 2, 3, 4, 5, 6}, {0}, {0}, {0}, {0}, {0}, {0}},
		dist:   []int{0, 1, 1, 1, 1, 1, 1},
		ports:  map[[2]int]int{},
		ids:    make([]int, 7),
		hosts:  []int{0, 1, 2, 3, 4, 5, 6},
	}
	for i := 1; i <= 6; i++ {
		tpl.ports[[2]int{0, i}] = 1
		tpl.ports[[2]int{i, 0}] = 1
	}
	key, hosts, ok := tpl.AppendShape([]byte("k"), []int{9})
	if ok || !bytes.Equal(key, []byte("k")) || len(hosts) != 1 || hosts[0] != 9 {
		t.Fatalf("AppendShape on a non-discrete template = %q, %v, %v; want the buffers unchanged and ok=false", key, hosts, ok)
	}
}
