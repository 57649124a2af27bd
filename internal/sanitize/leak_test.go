package sanitize_test

import (
	"strings"
	"sync"
	"testing"

	"hidinglcp/internal/core"
	"hidinglcp/internal/decoders"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/nbhd"
	"hidinglcp/internal/sanitize"
)

// TestLeakCheckCatchesLeakyBuilder is the probe's positive case: a fake
// builder that spawns workers blocked on a channel nobody closes. Every
// worker must show up in the report, attributed to its creation site.
func TestLeakCheckCatchesLeakyBuilder(t *testing.T) {
	const workers = 3
	stall := make(chan struct{})
	started := make(chan struct{})
	var done sync.WaitGroup

	report := sanitize.LeakCheck(func() {
		// Deliberately leaky: the workers survive the builder's return.
		for i := 0; i < workers; i++ {
			done.Add(1)
			go func() {
				defer done.Done()
				started <- struct{}{}
				<-stall
			}()
		}
		for i := 0; i < workers; i++ {
			<-started
		}
	})
	// Unwedge the fake workers before any assertion can bail out, so the
	// deliberate leak does not outlive this test.
	close(stall)
	done.Wait()

	if report == nil {
		t.Fatal("LeakCheck returned nil for a builder that leaked goroutines")
	}
	if len(report.Leaked) != workers {
		t.Fatalf("leaked %d goroutines, want %d: %v", len(report.Leaked), workers, report.Error())
	}
	msg := report.Error()
	if !strings.Contains(msg, "goroutine leak") {
		t.Errorf("report text %q does not name the failure", msg)
	}
	for _, g := range report.Leaked {
		if g.ID == 0 {
			t.Errorf("leaked goroutine has no id: %+v", g)
		}
		if !strings.Contains(g.CreatedBy, "TestLeakCheckCatchesLeakyBuilder") {
			t.Errorf("leaked goroutine attributed to %q, want this test's fake builder", g.CreatedBy)
		}
		if g.Stack == "" {
			t.Errorf("leaked goroutine %d carries no stack", g.ID)
		}
	}
}

// TestLeakCheckAllowsJoinedPool is the negative case: a worker pool joined
// on a WaitGroup before returning is exactly the contract the probe
// enforces, so the report must be nil.
func TestLeakCheckAllowsJoinedPool(t *testing.T) {
	report := sanitize.LeakCheck(func() {
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(worker int) {
				defer wg.Done()
				_ = worker * worker
			}(i)
		}
		wg.Wait()
	})
	if report != nil {
		t.Fatalf("LeakCheck flagged a joined pool: %v", report.Error())
	}
}

// TestLeakCheckGrantsDrainGrace: a goroutine still winding down when f
// returns (past its last synchronization, before its exit) must not count
// as leaked — the drain loop has to absorb it.
func TestLeakCheckGrantsDrainGrace(t *testing.T) {
	handoff := make(chan struct{})
	report := sanitize.LeakCheck(func() {
		go func() {
			<-handoff
		}()
		// Return with the goroutine alive but already scheduled to exit.
		close(handoff)
	})
	if report != nil {
		t.Fatalf("LeakCheck flagged a goroutine inside the drain grace period: %v", report.Error())
	}
}

// TestProbeBuildSharded pins the shipped builder to its cleanup contract:
// the work-stealing pool must be fully exited when BuildShardedCtx returns.
func TestProbeBuildSharded(t *testing.T) {
	s := decoders.DegreeOne()
	fam := decoders.DegOneFamily(3)
	alpha := decoders.DegOneAlphabet()

	g, leak, err := sanitize.ProbeBuildSharded(s.Decoder, nbhd.ShardedAllLabelings(alpha, fam...), 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g == nil {
		t.Fatal("probe returned no graph")
	}
	if leak != nil {
		t.Fatalf("BuildShardedCtx leaked goroutines: %v", leak.Error())
	}
}

// TestProbeExhaustiveStrongSoundnessParallel pins the parallel soundness
// search to the same contract across shard/worker shapes.
func TestProbeExhaustiveStrongSoundnessParallel(t *testing.T) {
	s := decoders.DegreeOne()
	inst := core.NewAnonymousInstance(graph.Path(4))
	alpha := decoders.DegOneAlphabet()

	for _, shape := range []struct{ shards, workers int }{
		{1, 1}, {4, 2}, {8, 4},
	} {
		leak, err := sanitize.ProbeExhaustiveStrongSoundnessParallel(
			s.Decoder, s.Promise.Lang, inst, alpha, shape.shards, shape.workers)
		if err != nil {
			t.Fatalf("shards=%d workers=%d: %v", shape.shards, shape.workers, err)
		}
		if leak != nil {
			t.Fatalf("shards=%d workers=%d leaked goroutines: %v",
				shape.shards, shape.workers, leak.Error())
		}
	}
}
