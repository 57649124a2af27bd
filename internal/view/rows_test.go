package view_test

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"hidinglcp/internal/graph"
	"hidinglcp/internal/graph/graphtest"
	"hidinglcp/internal/view"
)

// TestViewSize keeps View within the 144-byte allocation size class, which
// the Arena's view slabs are sized in: the port rows, the view's only
// adjacency, sit behind a pointer because a slice header would grow View
// past it.
func TestViewSize(t *testing.T) {
	if n := unsafe.Sizeof(view.View{}); n > 144 {
		t.Errorf("view.View is %d bytes, want at most 144", n)
	}
}

// checkRows fails unless mu carries exactly the port rows want (from
// graphtest.ViewPortRows), with no row ending in -1 and with Port and
// Degree agreeing with the rows' visible entries.
func checkRows(t *testing.T, what string, mu *view.View, want [][]int) {
	t.Helper()
	if len(mu.Ports.Rows) != len(want) {
		t.Fatalf("%s: %d port rows, want %d", what, len(mu.Ports.Rows), len(want))
	}
	for i, row := range mu.Ports.Rows {
		if !slices.Equal(row, want[i]) {
			t.Fatalf("%s: row %d = %v, want %v", what, i, row, want[i])
		}
		if len(row) > 0 && row[len(row)-1] < 0 {
			t.Fatalf("%s: row %d = %v ends in -1", what, i, row)
		}
		visible := 0
		for p0, j := range row {
			if j < 0 {
				continue
			}
			visible++
			if p, ok := mu.Port(i, j); !ok || p != p0+1 {
				t.Fatalf("%s: Port(%d, %d) = %d, %v, want %d", what, i, j, p, ok, p0+1)
			}
		}
		if d := mu.Degree(i); d != visible {
			t.Fatalf("%s: row %d = %v has %d visible ports, Degree(%d) = %d", what, i, row, visible, i, d)
		}
	}
}

// TestPortRowsMatchReference extracts the view of every center at radius
// 0, 1 and 2 in each network of graphtest.SmallPortedGraphs and holds its rows, and those of
// its Clone, to the reference.
func TestPortRowsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var ex view.Extractor
	views := 0
	graphtest.SmallPortedGraphs(rng, func(g *graph.Graph, pt *graph.Ports) {
		labels := make([]string, g.N())
		for center := 0; center < g.N(); center++ {
			for r := 0; r <= 2; r++ {
				tpl, err := ex.Template(g, pt, nil, g.N(), center, r)
				if err != nil {
					t.Fatal(err)
				}
				hosts := tpl.Hosts()
				sorted := slices.Clone(hosts)
				slices.Sort(sorted)
				if ball := g.Ball(center, r); !slices.Equal(sorted, ball) {
					t.Fatalf("graph %v center %d radius %d: hosts %v, want the ball %v", g, center, r, hosts, ball)
				}
				want := graphtest.ViewPortRows(g, pt, hosts, r)
				mu := tpl.Instantiate(labels)
				checkRows(t, "extracted", mu, want)
				c := mu.Clone()
				checkRows(t, "cloned", c, want)
				for _, row := range c.Ports.Rows {
					if len(row) > 0 {
						row[0] = -2 // the clone owns its rows
					}
				}
				checkRows(t, "extracted after writing the clone", mu, want)
				views++
			}
		}
	})
	if views != 340191 {
		t.Errorf("checked %d views, want 340191", views)
	}
}
