//go:build !race

package graph

import "testing"

// Allocation pins for the enumeration core: one full enumeration pays a
// small constant setup (the reused slice or Graph), and the per-item cost is
// zero — the yielded values are reused across calls by contract. The race
// detector instruments allocations, so these run only in plain builds.

func TestEnumLabelingsAllocs(t *testing.T) {
	// 3^4 = 81 labelings; only the single reused slice may allocate.
	if n := testing.AllocsPerRun(20, func() {
		EnumLabelings(4, 3, func([]int) bool { return true })
	}); n > 2 {
		t.Errorf("EnumLabelings(4,3) allocates %.1f objects per full enumeration, want <= 2", n)
	}
}

func TestCombinationsAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(20, func() {
		Combinations(8, 3, func([]int) bool { return true })
	}); n > 2 {
		t.Errorf("Combinations(8,3) allocates %.1f objects per full enumeration, want <= 2", n)
	}
}

func TestEnumGraphsAllocs(t *testing.T) {
	// 2^6 = 64 graphs on 4 nodes through one reused Graph and one shared
	// adjacency backing array.
	if n := testing.AllocsPerRun(20, func() {
		EnumGraphs(4, func(*Graph) bool { return true })
	}); n > 8 {
		t.Errorf("EnumGraphs(4) allocates %.1f objects per full enumeration, want <= 8", n)
	}
}

func TestAppendFormAllocs(t *testing.T) {
	g := Petersen()
	pt := DefaultPorts(g)
	for _, ids := range []IDs{nil, SequentialIDs(g.N())} {
		buf, _ := pt.AppendForm(nil, ids, g.N())
		if n := testing.AllocsPerRun(50, func() {
			buf, _ = pt.AppendForm(buf[:0], ids, g.N())
		}); n != 0 {
			t.Errorf("AppendForm (ids %v) allocates %.1f objects per call once its buffer has grown, want 0", ids != nil, n)
		}
	}
}
