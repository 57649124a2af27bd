package sim

import (
	"reflect"
	"testing"

	"hidinglcp/internal/core"
	"hidinglcp/internal/decoders"
	"hidinglcp/internal/faults"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/graph/graphtest"
	"hidinglcp/internal/obs"
	"hidinglcp/internal/view"
)

// FuzzGatherFaults fuzzes the fault runtime over (graph, plan) pairs. For
// every input it checks the two pillars of the fault model:
//
//  1. Replay determinism — running the same (seed, plan) twice yields
//     bit-identical views, stats, and fault report.
//  2. Crash-view semantics — for a crash-only plan firing at round 0, the
//     survivors' gathered views equal centralized extraction on the
//     crash-induced subgraph (with original port numbers).
//
// The general plan may drop, duplicate, delay, reorder, and crash; the
// runtime must never panic, never error (plans are pre-validated), and
// always terminate.
func FuzzGatherFaults(f *testing.F) {
	for _, g := range []*graph.Graph{graph.Path(4), graph.MustCycle(6), graph.Grid(3, 3), graph.Star(5)} {
		g6, err := graphtest.Graph6(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(g6, int64(1), uint16(250), uint16(100), uint16(300), uint8(2), uint8(0))
		f.Add(g6, int64(7), uint16(0), uint16(0), uint16(0), uint8(0), uint8(0b1010))
	}
	f.Fuzz(func(t *testing.T, g6 string, seed int64, dropMilli, dupMilli, delayMilli uint16, maxDelay, crashMask uint8) {
		g, err := graphtest.ParseGraph6(g6)
		if err != nil || g.N() == 0 || g.N() > 12 {
			t.Skip()
		}
		labels := make([]string, g.N())
		for v := range labels {
			labels[v] = string(rune('a' + v%3))
		}
		l := labeled(g, labels)
		r := 1 + int(uint8(seed))%3

		crashes := map[int]int{}
		for v := 0; v < g.N() && v < 8; v++ {
			if crashMask&(1<<v) != 0 {
				crashes[v] = 0
			}
		}

		plan := faults.Plan{
			Seed:      seed,
			Drop:      float64(dropMilli%1001) / 1000,
			Duplicate: float64(dupMilli%1001) / 1000,
			Delay:     float64(delayMilli%1001) / 1000,
			MaxDelay:  int(maxDelay % 4),
			Reorder:   seed%2 == 0,
			Crashes:   crashes,
		}
		viewsA, statsA, repA, err := Gather(nil, obs.Scope{}, l, r, plan)
		if err != nil {
			t.Fatalf("pre-validated plan errored: %v", err)
		}
		viewsB, statsB, repB, err := Gather(nil, obs.Scope{}, l, r, plan)
		if err != nil {
			t.Fatal(err)
		}
		if statsA != statsB || repA.Summary() != repB.Summary() {
			t.Fatalf("replay diverged: stats %+v vs %+v, report %q vs %q",
				statsA, statsB, repA.Summary(), repB.Summary())
		}
		if !reflect.DeepEqual(viewKeys(viewsA), viewKeys(viewsB)) {
			t.Fatal("replay produced different views")
		}

		// Crash-only plan at round 0: survivors see exactly the induced
		// subgraph.
		if len(crashes) == 0 || len(crashes) == g.N() {
			return
		}
		crashOnly := faults.Plan{Seed: seed, Crashes: crashes}
		views, _, _, err := Gather(nil, obs.Scope{}, l, r, crashOnly)
		if err != nil {
			t.Fatal(err)
		}
		var survivors []int
		for v := 0; v < g.N(); v++ {
			if _, dead := crashes[v]; !dead {
				survivors = append(survivors, v)
			}
		}
		sub, orig := g.InducedSubgraph(survivors)
		ip, err := graph.InducedPorts(l.Prt, sub, orig)
		if err != nil {
			t.Fatal(err)
		}
		subIDs := make(graph.IDs, sub.N())
		subLabels := make([]string, sub.N())
		for i, h := range orig {
			subIDs[i] = l.IDs[h]
			subLabels[i] = l.Labels[h]
		}
		for i, h := range orig {
			want, err := view.Extract(sub, ip, subIDs, subLabels, l.NBound, i, r)
			if err != nil {
				t.Fatal(err)
			}
			if got := views[h]; got == nil || got.Key() != want.Key() {
				t.Fatalf("survivor %d: crash view differs from induced-subgraph extraction", h)
			}
		}
	})
}

// FuzzRunSchemeFaults fuzzes end-to-end degradation: an even-cycle
// yes-instance under arbitrary faults must produce verdicts (never an
// error), with crashed nodes marked and every verdict accounted for.
func FuzzRunSchemeFaults(f *testing.F) {
	f.Add(int64(3), uint16(200), uint8(0b100))
	f.Add(int64(9), uint16(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, dropMilli uint16, crashMask uint8) {
		g := graph.MustCycle(8)
		crashes := map[int]int{}
		for v := 0; v < 8; v++ {
			if crashMask&(1<<v) != 0 {
				crashes[v] = int(uint8(seed)) % 2
			}
		}
		plan := faults.Plan{Seed: seed, Drop: float64(dropMilli%1001) / 1000, Crashes: crashes}
		fr, err := RunSchemeFaultsCtx(nil, obs.Scope{}, decoders.EvenCycle(), core.NewAnonymousInstance(g), plan)
		if err != nil {
			t.Fatalf("fault run errored instead of degrading: %v", err)
		}
		accepted, rejected, crashed := fr.Counts()
		if accepted+rejected+crashed != g.N() {
			t.Fatalf("verdict counts %d+%d+%d do not cover %d nodes", accepted, rejected, crashed, g.N())
		}
		if crashed != len(fr.Faults.Crashed) {
			t.Fatalf("verdict crash count %d vs report %v", crashed, fr.Faults.Crashed)
		}
		for _, v := range fr.Faults.Crashed {
			if fr.Verdicts[v] != core.VerdictCrashed {
				t.Fatalf("node %d crashed but verdict is %v", v, fr.Verdicts[v])
			}
		}
	})
}
