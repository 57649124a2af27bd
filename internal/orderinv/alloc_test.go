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
