package sim

import (
	"fmt"
	"testing"

	"hidinglcp/internal/core"
	"hidinglcp/internal/faults"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/obs"
	"hidinglcp/internal/view"
)

// gather is the fault-free goroutine-per-node gather: GatherFaultsCtx under
// the zero-value plan, the nil never-cancelled context, and a zero Scope.
func gather(l core.Labeled, r int) ([]*view.View, Stats, error) {
	views, stats, _, err := GatherFaultsCtx(nil, obs.Scope{}, l, r, faults.Plan{})
	return views, stats, err
}

// gatherSequential computes the fault-free gather with a plain round loop
// and no goroutines: the single-threaded reference the scheduler is
// checked against, and the scheduling ablation baseline of
// BenchmarkSimulator.
func gatherSequential(l core.Labeled, r int) ([]*view.View, Stats, error) {
	n := l.G.N()
	if r < 0 {
		return nil, Stats{}, fmt.Errorf("negative radius %d", r)
	}
	know, err := initialKnowledge(l, l.Labels)
	if err != nil {
		return nil, Stats{}, err
	}
	stats := Stats{Rounds: r}
	for round := 0; round < r; round++ {
		snapshots := make([]knowledge, n)
		for v := 0; v < n; v++ {
			snapshots[v] = know[v].clone()
		}
		for v := 0; v < n; v++ {
			for _, w := range l.G.Neighbors(v) {
				know[v].merge(snapshots[w])
				stats.Messages++
				stats.Records += len(snapshots[w].nodes)
			}
		}
	}
	views := make([]*view.View, n)
	for v := 0; v < n; v++ {
		mu, err := assemble(know[v], v, r, l.NBound)
		if err != nil {
			return nil, stats, err
		}
		views[v] = mu
	}
	return views, stats, nil
}

// BenchmarkSimulator ablates goroutine-per-node vs sequential round-loop
// scheduling for view gathering (DESIGN.md Section 4).
func BenchmarkSimulator(b *testing.B) {
	g := graph.Grid(8, 8)
	l := core.MustNewLabeled(core.NewInstance(g), make([]string, g.N()))
	b.Run("goroutines", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := gather(l, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := gatherSequential(l, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
}
