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

// TestProbeKeyAllocs pins the nbhd builders' interner probe at zero
// allocations: canonicalizing a scratch view into a reused key buffer and
// finding its class with LookupKey must not touch the heap once the
// buffer has grown.
func TestProbeKeyAllocs(t *testing.T) {
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
	in := view.NewInterner()
	want := in.Intern(tpl.Instantiate(labels))
	var scratch view.View
	mu := tpl.InstantiateInto(&scratch, labels)
	key := mu.AppendBinKey(nil)
	if n := testing.AllocsPerRun(100, func() {
		key = mu.AppendBinKey(key[:0])
		if h, ok := in.LookupKey(key); !ok || h != want {
			t.Fatalf("LookupKey = %d, %v; want %d, true", h, ok, want)
		}
	}); n != 0 {
		t.Errorf("AppendBinKey + LookupKey hit allocates %.1f objects per probe in steady state, want 0", n)
	}
}

// TestAppendShapeAllocs pins the shape computation at zero allocations
// once the caller's key and host buffers have grown: the refinement and
// serialization run on the pooled key scratch, like AppendBinKey.
func TestAppendShapeAllocs(t *testing.T) {
	g := graph.Grid(4, 4)
	pt := graph.DefaultPorts(g)
	var ex view.Extractor
	tpl, err := ex.Template(g, pt, nil, g.N(), 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	key, hosts, ok := tpl.AppendShape(nil, nil)
	if !ok {
		t.Fatal("grid template has no shape")
	}
	if n := testing.AllocsPerRun(100, func() {
		key, hosts, _ = tpl.AppendShape(key[:0], hosts[:0])
	}); n != 0 {
		t.Errorf("AppendShape allocates %.1f objects per call in steady state, want 0", n)
	}
}
