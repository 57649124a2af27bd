//go:build !race

package sim

import (
	"testing"

	"hidinglcp/internal/core"
	"hidinglcp/internal/faults"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/obs"
)

// TestGatherAllocs pins the allocations of one gather on the 8x8 grid at
// radius 2, fault-free and under BenchmarkGatherFaults's chaos plan. Most
// of them are the per-round knowledge snapshots and the map growth of the
// merges; the hash tables' growth varies by a few allocations with their
// random seeds, hence the small headroom. The race detector instruments
// allocations, so this runs only in plain builds.
func TestGatherAllocs(t *testing.T) {
	g := graph.Grid(8, 8)
	l := core.MustNewLabeled(core.NewInstance(g), make([]string, g.N()))
	for _, tc := range []struct {
		plan faults.Plan
		max  float64
	}{
		{faults.Plan{}, 5300},
		{faults.Plan{Seed: 7, Drop: 0.1, Duplicate: 0.1, Delay: 0.2, MaxDelay: 2, Reorder: true}, 5000},
	} {
		if n := testing.AllocsPerRun(10, func() {
			if _, _, _, err := GatherFaultsCtx(nil, obs.Scope{}, l, 2, tc.plan); err != nil {
				t.Fatal(err)
			}
		}); n > tc.max {
			t.Errorf("plan %s: gather allocates %.0f objects per call, want <= %.0f", tc.plan, n, tc.max)
		}
	}
}
