package sim

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"hidinglcp/internal/core"
	"hidinglcp/internal/decoders"
	"hidinglcp/internal/faults"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/graph/graphtest"
	"hidinglcp/internal/obs"
)

func labeled(g *graph.Graph, labels []string) core.Labeled {
	return core.MustNewLabeled(core.NewInstance(g), labels)
}

func randomLabels(n int, rng *rand.Rand) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = string(rune('a' + rng.Intn(4)))
	}
	return out
}

// TestGatherMatchesExtract is the simulator's central contract: r rounds of
// message passing assemble exactly the view that view.Extract computes
// centrally.
func TestGatherMatchesExtract(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 30; trial++ {
		g := graphtest.ConnectedGNP(3+rng.Intn(7), 0.4, rng)
		l := labeled(g, randomLabels(g.N(), rng))
		r := rng.Intn(3)
		got, _, err := gather(l, r)
		if err != nil {
			t.Fatal(err)
		}
		want, err := l.Views(r)
		if err != nil {
			t.Fatal(err)
		}
		for v := range got {
			if got[v].Key() != want[v].Key() {
				t.Fatalf("trial %d node %d radius %d: gathered view differs\n got %s\nwant %s",
					trial, v, r, got[v].Key(), want[v].Key())
			}
			// Both number local nodes by (distance, host index), so the
			// port rows agree entry for entry.
			if !slices.EqualFunc(got[v].Ports.Rows, want[v].Ports.Rows, slices.Equal[[]int]) {
				t.Fatalf("trial %d node %d radius %d: gathered port rows %v, want %v",
					trial, v, r, got[v].Ports.Rows, want[v].Ports.Rows)
			}
		}
	}
}

func TestGatherSequentialMatchesExtract(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		g := graphtest.ConnectedGNP(3+rng.Intn(7), 0.4, rng)
		l := labeled(g, randomLabels(g.N(), rng))
		r := rng.Intn(3)
		got, _, err := gatherSequential(l, r)
		if err != nil {
			t.Fatal(err)
		}
		want, err := l.Views(r)
		if err != nil {
			t.Fatal(err)
		}
		for v := range got {
			if got[v].Key() != want[v].Key() {
				t.Fatalf("trial %d node %d: sequential view differs", trial, v)
			}
		}
	}
}

func TestGatherStats(t *testing.T) {
	g := graph.MustCycle(6)
	l := labeled(g, make([]string, 6))
	_, stats, err := gather(l, 3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 3 {
		t.Errorf("rounds = %d, want 3", stats.Rounds)
	}
	// One message per directed edge per round: 3 * 12.
	if stats.Messages != 36 {
		t.Errorf("messages = %d, want 36", stats.Messages)
	}
	if stats.Records == 0 {
		t.Error("no records counted")
	}
}

func TestGatherRadiusZero(t *testing.T) {
	g := graph.Path(4)
	l := labeled(g, []string{"a", "b", "c", "d"})
	views, stats, err := gather(l, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != 0 {
		t.Errorf("radius-0 gather sent %d messages", stats.Messages)
	}
	for v, mu := range views {
		if mu.N() != 1 || mu.Labels[0] != l.Labels[v] {
			t.Errorf("node %d: view %v", v, mu)
		}
	}
}

func TestGatherNegativeRadius(t *testing.T) {
	l := labeled(graph.Path(2), []string{"", ""})
	if _, _, err := gather(l, -1); err == nil {
		t.Error("negative radius accepted")
	}
	if _, _, err := gatherSequential(l, -1); err == nil {
		t.Error("negative radius accepted (sequential)")
	}
}

func TestGatherFrontierTruncation(t *testing.T) {
	// Triangle at radius 1: no gathered view may contain the far edge.
	g := graph.MustCycle(3)
	l := labeled(g, make([]string, 3))
	views, _, err := gather(l, 1)
	if err != nil {
		t.Fatal(err)
	}
	for v, mu := range views {
		if _, ok := mu.Port(1, 2); ok {
			t.Errorf("node %d sees the frontier edge", v)
		}
	}
}

// TestRunSchemeEndToEnd drives every scheme through the message-passing
// pipeline on a suitable yes-instance: all nodes must accept.
func TestRunSchemeEndToEnd(t *testing.T) {
	tests := []struct {
		name string
		s    core.Scheme
		g    *graph.Graph
	}{
		{"trivial on grid", decoders.Trivial(2), graph.Grid(3, 4)},
		{"degree-one on spider", decoders.DegreeOne(), graph.Spider([]int{2, 3, 1})},
		{"even cycle on C10", decoders.EvenCycle(), graph.MustCycle(10)},
		{"union on star", decoders.Union(), graph.Star(6)},
		{"shatter on grid", decoders.Shatter(), graph.Grid(3, 3)},
		{"watermelon on theta", decoders.Watermelon(), graph.MustWatermelon([]int{2, 4, 2})},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			fr, err := RunSchemeFaultsCtx(nil, obs.Scope{}, tt.s, core.NewInstance(tt.g), faults.Plan{})
			if err != nil {
				t.Fatal(err)
			}
			for v, verdict := range fr.Verdicts {
				if !verdict.Accepted() {
					t.Errorf("node %d rejects", v)
				}
			}
			if fr.Stats.Messages == 0 {
				t.Error("no communication happened")
			}
		})
	}
}

func TestRunSchemeRejectsOutsidePromise(t *testing.T) {
	_, err := RunSchemeFaultsCtx(nil, obs.Scope{}, decoders.EvenCycle(), core.NewInstance(graph.MustCycle(5)), faults.Plan{})
	if err == nil {
		t.Error("prover certified an odd cycle through the simulator")
	}
}

// TestGatherMalformedPorts: a port assignment that does not cover the
// instance's edges must surface as an error from both gather paths, not a
// panic mid-flood. Star(4)'s ports cover only edges incident to the hub,
// so running them against Path(4) (which has edge 2-3) is malformed.
func TestGatherMalformedPorts(t *testing.T) {
	g := graph.Path(4)
	inst := core.NewInstance(g)
	inst.Prt = graph.DefaultPorts(graph.Star(4))
	l := core.MustNewLabeled(inst, make([]string, 4))
	if _, _, err := gather(l, 1); err == nil {
		t.Error("gather accepted a malformed port assignment")
	}
	if _, _, err := gatherSequential(l, 1); err == nil {
		t.Error("sequential gather accepted a malformed port assignment")
	}
	// A nil port assignment is the degenerate malformed case.
	l.Prt = nil
	if _, _, err := gather(l, 1); err == nil {
		t.Error("gather accepted a nil port assignment")
	}
	if _, _, err := gatherSequential(l, 1); err == nil {
		t.Error("sequential gather accepted a nil port assignment")
	}
}

// Property: parallel and sequential gathering agree on all views and on
// message counts.
func TestGatherParallelSequentialAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graphtest.ConnectedGNP(3+rng.Intn(6), 0.5, rng)
		l := labeled(g, randomLabels(g.N(), rng))
		r := 1 + rng.Intn(2)
		a, sa, err := gather(l, r)
		if err != nil {
			return false
		}
		b, sb, err := gatherSequential(l, r)
		if err != nil {
			return false
		}
		if sa.Messages != sb.Messages {
			return false
		}
		for v := range a {
			if a[v].Key() != b[v].Key() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
