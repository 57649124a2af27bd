package sanitize

import (
	"math/rand"
	"slices"
	"testing"

	"hidinglcp/internal/graph"
	"hidinglcp/internal/graph/graphtest"
	"hidinglcp/internal/view"
)

// TestRelabelViewKeepsPortRows renumbers the view of every center at radius
// 0, 1 and 2 in each network of graphtest.SmallPortedGraphs within its
// distance classes. The relabeled view must carry the port rows the
// reference derives for the renumbered hosts, with no row ending in -1, and
// the same canonical key. viewsDeepEqual, the sanitizer's mutation check,
// must see a view equal to its clone until a port row of the clone changes.
func TestRelabelViewKeepsPortRows(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
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
				mu := tpl.Instantiate(labels)
				perm, _ := distClassPerm(mu, rng)
				out := relabelView(mu, perm)
				hosts := make([]int, len(perm))
				for i, h := range tpl.Hosts() {
					hosts[perm[i]] = h
				}
				want := graphtest.ViewPortRows(g, pt, hosts, r)
				for i, row := range out.Ports.Rows {
					if !slices.Equal(row, want[i]) || (len(row) > 0 && row[len(row)-1] < 0) {
						t.Fatalf("graph %v center %d radius %d perm %v: row %d = %v, want %v", g, center, r, perm, i, row, want[i])
					}
				}
				if out.Key() != mu.Key() {
					t.Fatalf("graph %v center %d radius %d perm %v: relabeling changed the key", g, center, r, perm)
				}
				c := mu.Clone()
				if !viewsDeepEqual(mu, c) {
					t.Fatalf("graph %v center %d radius %d: view differs from its clone", g, center, r)
				}
				if len(c.Ports.Rows[view.Center]) > 0 {
					c.Ports.Rows[view.Center][0] = -1
					if viewsDeepEqual(mu, c) {
						t.Fatalf("graph %v center %d radius %d: a port row write went unseen", g, center, r)
					}
				}
				views++
			}
		}
	})
	if views != 340191 {
		t.Errorf("checked %d views, want 340191", views)
	}
}
