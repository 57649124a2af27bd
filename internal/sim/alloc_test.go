//go:build !race

package sim

import (
	"testing"

	"hidinglcp/internal/core"
	"hidinglcp/internal/decoders"
	"hidinglcp/internal/faults"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/obs"
)

// TestGatherAllocs caps the allocations of one gather on the 8x8 grid at
// radius 2, fault-free and under BenchmarkGatherFaults's chaos plan, at
// their exact counts: most of them are the returned views (five objects
// each: a Template sized to the view, its backing and row headers, the
// View and its labels) and the doublings of the append-only knowledge
// sets, the inboxes and the delayed copies, all deterministic. It also
// caps one run of the chaos-grid24 benchmark workload (DegreeOne on the
// 24x24 grid plus a pendant, seed 1), which decides every view in one
// scratch and so allocates no view per node. None of the counts includes
// the span attributes, which are formatted only when sc traces. The race
// detector instruments allocations, so this runs only in plain builds.
func TestGatherAllocs(t *testing.T) {
	g := graph.Grid(8, 8)
	l := core.MustNewLabeled(core.NewInstance(g), make([]string, g.N()))
	for _, tc := range []struct {
		plan faults.Plan
		max  float64
	}{
		{faults.Plan{}, 341},
		{faults.Plan{Seed: 7, Drop: 0.1, Duplicate: 0.1, Delay: 0.2, MaxDelay: 2, Reorder: true}, 401},
	} {
		if n := minAllocs(func() {
			if _, _, _, err := Gather(nil, obs.Scope{}, l, 2, tc.plan); err != nil {
				t.Fatal(err)
			}
		}); n > tc.max {
			t.Errorf("plan %s: gather allocates %.0f objects per call, want <= %.0f", tc.plan, n, tc.max)
		}
	}

	chaos, err := graph.AttachPendant(graph.Grid(24, 24), 0)
	if err != nil {
		t.Fatal(err)
	}
	inst := core.NewAnonymousInstance(chaos)
	plan := faults.Plan{Seed: 1, Drop: 0.05, Duplicate: 0.1, Delay: 0.2, MaxDelay: 2, Reorder: true}
	const limit = 156
	if n := minAllocs(func() {
		if _, err := RunSchemeFaultsCtx(nil, obs.Scope{}, decoders.DegreeOne(), inst, plan); err != nil {
			t.Fatal(err)
		}
	}); n > limit {
		t.Errorf("chaos-grid24 run allocates %.0f objects per call, want <= %d", n, limit)
	}
}

// minAllocs is the fewest allocations f made in ten one-call samples. A
// call's own count is fixed, but now and then a sample also counts an
// object the runtime allocated meanwhile, outside the call; the minimum
// drops those, so a cap can be the exact count.
func minAllocs(f func()) float64 {
	least := testing.AllocsPerRun(1, f)
	for range 9 {
		least = min(least, testing.AllocsPerRun(1, f))
	}
	return least
}
