package view

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"hidinglcp/internal/graph"
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
		if err := ex.TemplateInto(&scratch, g, pt, c.ids, 12, c.center, c.r); err != nil {
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
