package view

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hidinglcp/internal/graph"
	"hidinglcp/internal/graph/graphtest"
)

// sameTemplate compares every field a view reads from a template.
func sameTemplate(t *testing.T, what string, got, want *Template) {
	t.Helper()
	if got.radius != want.radius || got.nBound != want.nBound ||
		!reflect.DeepEqual(got.dist(), want.dist()) ||
		!reflect.DeepEqual(got.ports.Rows, want.ports.Rows) ||
		!reflect.DeepEqual(got.ids, want.ids) ||
		!reflect.DeepEqual(got.hosts, want.hosts) {
		t.Errorf("%s: rebuilt template differs from a fresh one:\n got  r=%d N=%d dist=%v rows=%v ids=%v hosts=%v\n want r=%d N=%d dist=%v rows=%v ids=%v hosts=%v", what,
			got.radius, got.nBound, got.dist(), got.ports.Rows, got.ids, got.hosts,
			want.radius, want.nBound, want.dist(), want.ports.Rows, want.ids, want.hosts)
	}
}

// TestTemplateIntoMatchesTemplate rebuilds one scratch template in place
// after larger ones, with and without identifiers and for an isolated
// node, and checks each rebuild against a freshly built Template field by
// field: no identifier or port row of an earlier build may
// survive, and a view instantiated from the scratch keys like a fresh one.
func TestTemplateIntoMatchesTemplate(t *testing.T) {
	// A 3x3 grid plus an isolated node 9.
	g := graph.New(10)
	for _, e := range graph.Grid(3, 3).Edges() {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	pt := graph.DefaultPorts(g)
	ids := graph.SequentialIDs(g.N())
	labels := []string{"a", "b", "", "c", "d", "", "e", "f", "g", "h"}
	var (
		ex, fresh Extractor
		scratch   Template
		mu        View
	)
	for _, c := range []struct {
		center, r int
		ids       graph.IDs
	}{
		{4, 2, ids}, // the whole grid, with identifiers
		{4, 1, nil}, // smaller, identifiers cleared
		{9, 1, ids}, // the isolated node
		{0, 2, nil}, // larger again, anonymous
		{9, 0, nil}, // radius 0
		{8, 1, ids}, // identifiers back
		{2, 3, nil}, // the whole grid, anonymous
		{9, 2, nil}, // isolated, anonymous
	} {
		what := fmt.Sprintf("center %d r=%d ids=%v", c.center, c.r, c.ids != nil)
		if err := ex.TemplateInto(&scratch, g, pt, c.ids, 12, c.center, c.r, nil); err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Template(g, pt, c.ids, 12, c.center, c.r)
		if err != nil {
			t.Fatal(err)
		}
		sameTemplate(t, what, &scratch, want)
		if got, want := scratch.InstantiateInto(&mu, labels).BinKey(), want.Instantiate(labels).BinKey(); !bytes.Equal(got, want) {
			t.Errorf("%s: scratch view key differs from a fresh view's", what)
		}
	}
}

// TestTemplateIntoKnown: restricted to a known set holding the center, a
// template is the view in the subgraph induced by that set. On random
// connected graphs, ports, identifiers, centers, radii and known sets, the
// view instantiated from it equals Extract on InducedSubgraph under
// InducedPorts field by field, and its hosts map to the same nodes; so does
// the view of a fresh Template given the same known nodes. One extractor
// and one scratch serve every trial, alternating with unrestricted builds,
// so no stamp of an earlier known set may leak.
func TestTemplateIntoKnown(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var (
		ex      Extractor
		scratch Template
		mu      View
	)
	for trial := 0; trial < 400; trial++ {
		g := graphtest.ConnectedGNP(1+rng.Intn(10), 0.35, rng)
		n := g.N()
		perm := make([][]int, n)
		for v := range perm {
			perm[v] = rng.Perm(g.Degree(v))
		}
		pt, err := graph.PortsFromPerm(g, perm)
		if err != nil {
			t.Fatal(err)
		}
		var ids graph.IDs
		if rng.Intn(2) == 0 {
			ids = make(graph.IDs, n)
			for v, id := range rng.Perm(2 * n) {
				if v < n {
					ids[v] = id + 1
				}
			}
		}
		labels := make([]string, n)
		for v := range labels {
			labels[v] = fmt.Sprint(rng.Intn(3))
		}
		center, r := rng.Intn(n), rng.Intn(4)
		known := []int32{int32(center)}
		for v := 0; v < n; v++ {
			if v != center && rng.Intn(3) > 0 {
				known = append(known, int32(v))
			}
		}
		rng.Shuffle(len(known), func(i, j int) { known[i], known[j] = known[j], known[i] })
		what := fmt.Sprintf("trial %d: %v center %d r=%d known %v", trial, g, center, r, known)

		if trial%2 == 1 {
			if err := ex.TemplateInto(&scratch, g, pt, ids, 2*n, center, r, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := ex.TemplateInto(&scratch, g, pt, ids, 2*n, center, r, known); err != nil {
			t.Fatal(err)
		}
		keep := make([]int, len(known))
		for i, h := range known {
			keep[i] = int(h)
		}
		sub, orig := g.InducedSubgraph(keep)
		ip, err := graph.InducedPorts(pt, sub, orig)
		if err != nil {
			t.Fatal(err)
		}
		var subIDs graph.IDs
		if ids != nil {
			subIDs = make(graph.IDs, sub.N())
		}
		subLabels := make([]string, sub.N())
		for i, h := range orig {
			if ids != nil {
				subIDs[i] = ids[h]
			}
			subLabels[i] = labels[h]
		}
		subCenter := slices.Index(orig, center)
		wantTpl, err := new(Extractor).Template(sub, ip, subIDs, 2*n, subCenter, r)
		if err != nil {
			t.Fatal(err)
		}
		want := MustExtract(sub, ip, subIDs, subLabels, 2*n, subCenter, r)
		owned, err := ex.Template(g, pt, ids, 2*n, center, r, known...)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			tpl  *Template
			got  *View
		}{
			{"TemplateInto", &scratch, scratch.InstantiateInto(&mu, labels)},
			{"Template", owned, owned.Instantiate(labels)},
		} {
			got := c.got
			if got.Radius != want.Radius || got.NBound != want.NBound ||
				!reflect.DeepEqual(got.Dist, want.Dist) ||
				!reflect.DeepEqual(got.Ports.Rows, want.Ports.Rows) ||
				!reflect.DeepEqual(got.IDs, want.IDs) ||
				!reflect.DeepEqual(got.Labels, want.Labels) {
				t.Fatalf("%s: %s: restricted view differs from induced-subgraph extraction:\n got  dist=%v rows=%v ids=%v\n want dist=%v rows=%v ids=%v", what, c.name,
					got.Dist, got.Ports.Rows, got.IDs, want.Dist, want.Ports.Rows, want.IDs)
			}
			for i, h := range c.tpl.Hosts() {
				if h != orig[wantTpl.Hosts()[i]] {
					t.Fatalf("%s: %s: local node %d is host %d, want %d", what, c.name, i, h, orig[wantTpl.Hosts()[i]])
				}
			}
		}
	}
}

// TestTemplateIntoKnownBeyondRadius: a known node the search inside the
// known set cannot reach within r is left out of the template, so N()
// falls short of len(known). On the path 0-1-2-3 from node 0, node 2 is
// beyond radius 1, and at radius 3 node 3 is cut off once node 2 is
// unknown.
func TestTemplateIntoKnownBeyondRadius(t *testing.T) {
	g := graph.Path(4)
	pt := graph.DefaultPorts(g)
	var (
		ex  Extractor
		tpl Template
	)
	for _, c := range []struct {
		r     int
		known []int32
	}{
		{1, []int32{0, 1, 2}},
		{3, []int32{0, 1, 3}},
	} {
		if err := ex.TemplateInto(&tpl, g, pt, nil, 4, 0, c.r, c.known); err != nil {
			t.Fatal(err)
		}
		if want := []int{0, 1}; !slices.Equal(tpl.Hosts(), want) || tpl.N() >= len(c.known) {
			t.Errorf("r=%d known %v: hosts %v (N() = %d), want %v", c.r, c.known, tpl.Hosts(), tpl.N(), want)
		}
	}
}
