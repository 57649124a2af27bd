//go:build !race

package view_test

import (
	"testing"

	"hidinglcp/internal/graph"
	"hidinglcp/internal/view"
)

// Allocation pins for the steady-state extraction paths. The race detector
// instruments allocations, so these run only in plain builds.

// TestInstantiateIntoAllocs pins the scratch-view refill at zero
// allocations: after the first call sizes the label slice, sweeping
// labelings through one scratch view must not touch the heap.
func TestInstantiateIntoAllocs(t *testing.T) {
	g := graph.Grid(4, 4)
	pt := graph.DefaultPorts(g)
	labels := make([]string, g.N())
	for i := range labels {
		labels[i] = "x"
	}
	var ex view.Extractor
	tpl, err := ex.Template(g, pt, nil, g.N(), 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	var scratch view.View
	tpl.InstantiateInto(&scratch, labels) // size the label slice once
	if n := testing.AllocsPerRun(100, func() {
		tpl.InstantiateInto(&scratch, labels)
	}); n != 0 {
		t.Errorf("InstantiateInto allocates %.1f objects per call in steady state, want 0", n)
	}
}

// TestTemplateAllocs pins a template build at three allocations: the
// Template, one backing array for its distances, identifiers, hosts and
// port rows, and one header array for the rows. A per-template map or
// per-row slice would show here.
func TestTemplateAllocs(t *testing.T) {
	g := graph.Grid(4, 4)
	pt := graph.DefaultPorts(g)
	var ex view.Extractor
	if _, err := ex.Template(g, pt, nil, g.N(), 5, 2); err != nil { // size the scratch once
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		_, _ = ex.Template(g, pt, nil, g.N(), 5, 2)
	}); n != 3 {
		t.Errorf("Extractor.Template allocates %.1f objects per call in steady state, want 3", n)
	}
}

// TestCachedKeyAllocs pins cached canonical-key reads at zero allocations.
func TestCachedKeyAllocs(t *testing.T) {
	g := graph.MustCycle(8)
	pt := graph.DefaultPorts(g)
	labels := make([]string, g.N())
	mu := view.MustExtract(g, pt, nil, labels, g.N(), 0, 1)
	mu.Key()
	mu.BinKey()
	if n := testing.AllocsPerRun(100, func() {
		_ = mu.Key()
		_ = mu.BinKey()
	}); n != 0 {
		t.Errorf("cached Key+BinKey allocate %.1f objects per call, want 0", n)
	}
}

// TestFreshKeyAllocs pins a fresh canonical key at one allocation, the
// key's bytes: the port order and the serialization buffers of a view of up
// to 32 nodes live on the stack. Each call refills a scratch view with
// InstantiateInto, which clears its cached key, and keys it with BinKey.
// Larger views grow those buffers on the heap; the 40-leaf stars of
// TestIDOrderSortCutoff and TestProbeKeyAllocs cover that path.
func TestFreshKeyAllocs(t *testing.T) {
	g := graph.Grid(4, 4)
	labels := make([]string, g.N())
	for i := range labels {
		labels[i] = []string{"a", "b", "c"}[i%3]
	}
	for _, ids := range []graph.IDs{nil, graph.SequentialIDs(g.N())} {
		var ex view.Extractor
		tpl, err := ex.Template(g, graph.DefaultPorts(g), ids, g.N(), 5, 2)
		if err != nil {
			t.Fatal(err)
		}
		var scratch view.View
		tpl.InstantiateInto(&scratch, labels) // size the label slice once
		if n := testing.AllocsPerRun(100, func() {
			tpl.InstantiateInto(&scratch, labels)
			_ = scratch.BinKey()
		}); n != 1 {
			t.Errorf("InstantiateInto + BinKey (ids %v) allocate %.1f objects per call, want 1 (the key bytes)", ids != nil, n)
		}
	}
}

// TestProbeKeyAllocs pins the nbhd builders' interner probe at zero
// allocations: splicing labels into a template's skeleton in a reused key
// buffer and finding its class with LookupKey must not touch the heap once
// the buffer has grown. The cases cover an anonymous radius-2 grid view, the
// same view with distinct identifiers, and a star center of degree 40,
// larger than any small fixed neighbor buffer.
func TestProbeKeyAllocs(t *testing.T) {
	star := graph.New(41)
	for v := 1; v <= 40; v++ {
		if err := star.AddEdge(0, v); err != nil {
			t.Fatal(err)
		}
	}
	grid := graph.Grid(4, 4)
	cases := []struct {
		name      string
		g         *graph.Graph
		ids       graph.IDs
		center, r int
	}{
		{"grid", grid, nil, 5, 2},
		{"grid-ids", grid, graph.SequentialIDs(grid.N()), 5, 2},
		{"star40", star, nil, 0, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			labels := make([]string, c.g.N())
			for i := range labels {
				labels[i] = []string{"a", "b", "c"}[i%3]
			}
			var ex view.Extractor
			tpl, err := ex.Template(c.g, graph.DefaultPorts(c.g), c.ids, c.g.N(), c.center, c.r)
			if err != nil {
				t.Fatal(err)
			}
			in := view.NewInterner()
			mu := tpl.Instantiate(labels)
			want := in.InternKey(mu.BinKey(), mu)
			var sk view.Skeleton
			tpl.SkeletonInto(&sk)
			key := sk.AppendKey(nil, labels)
			if n := testing.AllocsPerRun(100, func() {
				key = sk.AppendKey(key[:0], labels)
				if h, ok := in.LookupKey(key); !ok || h != want {
					t.Fatalf("LookupKey = %d, %v; want %d, true", h, ok, want)
				}
			}); n != 0 {
				t.Errorf("AppendKey + LookupKey hit allocates %.1f objects per probe in steady state, want 0", n)
			}
		})
	}
}

// TestAppendShapeAllocs pins the skeleton path at zero allocations once
// the buffers have grown: SkeletonInto runs the port order and
// serialization on stack scratch, like BinKey, and reuses the Skeleton's
// buffers; AppendKey only splices into the caller's buffer.
func TestAppendShapeAllocs(t *testing.T) {
	g := graph.Grid(4, 4)
	pt := graph.DefaultPorts(g)
	labels := make([]string, g.N())
	for i := range labels {
		labels[i] = []string{"a", "b", "c"}[i%3]
	}
	var ex view.Extractor
	tpl, err := ex.Template(g, pt, nil, g.N(), 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	var sk view.Skeleton
	tpl.SkeletonInto(&sk)
	key := sk.AppendKey(nil, labels)
	if n := testing.AllocsPerRun(100, func() {
		tpl.SkeletonInto(&sk)
		key = sk.AppendKey(key[:0], labels)
	}); n != 0 {
		t.Errorf("SkeletonInto + AppendKey allocate %.1f objects per call in steady state, want 0", n)
	}
}
