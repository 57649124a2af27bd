package sanitize

import (
	"context"
	"testing"
	"time"

	"hidinglcp/internal/core"
	"hidinglcp/internal/faults"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/obs"
	"hidinglcp/internal/sim"
	"hidinglcp/internal/view"
)

// probeGatherFaults runs the fault-injected gather under the goroutine-leak
// probe. The scheduler's contract is that no goroutine it started outlives
// Gather, crashed nodes and error paths included; a non-nil
// LeakReport is a contract violation regardless of err.
func probeGatherFaults(l core.Labeled, r int, plan faults.Plan) ([]*view.View, sim.Stats, *faults.Report, *LeakReport, error) {
	var views []*view.View
	var stats sim.Stats
	var rep *faults.Report
	var err error
	leak := LeakCheck(func() {
		views, stats, rep, err = sim.Gather(context.Background(), obs.Scope{}, l, r, plan)
	})
	return views, stats, rep, leak, err
}

// watchGatherFaults runs the fault-injected gather under the watchdog. The
// round loop must finish no matter which combination of crashes, drops,
// and delays the plan injects; a StallReport names where it hung when it
// does not.
func watchGatherFaults(timeout time.Duration, l core.Labeled, r int, plan faults.Plan) (*StallReport, error) {
	var err error
	stall := Watch(timeout, func() {
		_, _, _, err = sim.Gather(context.Background(), obs.Scope{}, l, r, plan)
	})
	if stall != nil {
		// The probed call never returned; its error is unknowable.
		return stall, nil
	}
	return nil, err
}

func chaosLabeled(t *testing.T, n int) core.Labeled {
	t.Helper()
	g := graph.MustCycle(n)
	inst := core.NewInstance(g)
	labels := make([]string, n)
	for v := range labels {
		labels[v] = string(rune('a' + v%3))
	}
	l, err := core.NewLabeled(inst, labels)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestProbeGatherFaultsNoLeak: the scheduler must leave no goroutine behind
// under each fault regime — including crash-stop, where nodes stop
// before completing all rounds.
func TestProbeGatherFaultsNoLeak(t *testing.T) {
	l := chaosLabeled(t, 8)
	plans := []faults.Plan{
		{},
		{Seed: 1, Drop: 0.4},
		{Seed: 2, Duplicate: 0.4, Reorder: true},
		{Seed: 3, Delay: 0.5, MaxDelay: 2},
		{Seed: 4, Crashes: map[int]int{0: 0, 3: 1, 5: 2}},
		{Seed: 5, Drop: 0.3, Duplicate: 0.3, Delay: 0.3, MaxDelay: 3,
			Reorder: true, Crashes: map[int]int{2: 1}, CorruptNodes: []int{4}},
	}
	for _, plan := range plans {
		views, _, _, leak, err := probeGatherFaults(l, 3, plan)
		if err != nil {
			t.Fatalf("plan %s: %v", plan, err)
		}
		if leak != nil {
			t.Errorf("plan %s leaked goroutines: %v", plan, leak)
		}
		if len(views) != 8 {
			t.Errorf("plan %s: %d views", plan, len(views))
		}
	}
}

// TestProbeGatherFaultsNoLeakOnError: even when the gather errors out (an
// invalid plan), no goroutines may survive.
func TestProbeGatherFaultsNoLeakOnError(t *testing.T) {
	l := chaosLabeled(t, 4)
	_, _, _, leak, err := probeGatherFaults(l, 2, faults.Plan{Drop: 7})
	if err == nil {
		t.Fatal("invalid plan accepted")
	}
	if leak != nil {
		t.Errorf("error path leaked goroutines: %v", leak)
	}
}

// TestWatchGatherFaultsCompletes: the round loop finishes under every
// fault regime well inside the watchdog budget.
func TestWatchGatherFaultsCompletes(t *testing.T) {
	l := chaosLabeled(t, 10)
	plans := []faults.Plan{
		{Seed: 6, Drop: 1},                          // total silence: all timeouts
		{Seed: 7, Crashes: map[int]int{0: 0, 5: 0}}, // crash-stop leavers
		{Seed: 8, Delay: 1, MaxDelay: 3},            // everything late
		{Seed: 9, Duplicate: 1, Reorder: true},      // bursty
	}
	for _, plan := range plans {
		stall, err := watchGatherFaults(30*time.Second, l, 3, plan)
		if stall != nil {
			t.Fatalf("plan %s wedged the scheduler: %v", plan, stall)
		}
		if err != nil {
			t.Fatalf("plan %s: %v", plan, err)
		}
	}
}
