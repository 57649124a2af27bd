//go:build !race

package orderinv

import "testing"

// TestVerifyRamsey33Allocs bounds the R(3,3) check's allocations: the
// per-coloring triangle search works on a stack array, so only the two
// pair lists remain. The race detector instruments allocations, so this
// runs only in plain builds.
func TestVerifyRamsey33Allocs(t *testing.T) {
	if n := testing.AllocsPerRun(5, func() {
		if err := VerifyRamsey33(); err != nil {
			t.Fatal(err)
		}
	}); n > 16 {
		t.Errorf("VerifyRamsey33 allocates %.0f objects per call, want <= 16", n)
	}
}

// TestTypeOfAllocs pins TypeOf's per-entry cost at zero allocations past
// the first entry: every entry's center view is built into one reused
// template and view, sized for the whole host graph on first use.
func TestTypeOfAllocs(t *testing.T) {
	catalog, err := PathTemplates(4, []string{"a", "", "b", ""}, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := parityDecoder()
	ids := []int{2, 4, 6, 8}
	typeOf := func(entries []Template) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := TypeOf(d, entries, ids); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, all := typeOf(catalog[:1]), typeOf(catalog); all != one {
		t.Errorf("TypeOf allocates %.0f objects over one entry and %.0f over %d, want the same", one, all, len(catalog))
	}
}
