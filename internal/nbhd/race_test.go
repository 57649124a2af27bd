//go:build race

package nbhd

import (
	"context"
	"sync"
	"testing"

	"hidinglcp/internal/core"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/obs"
)

// TestRaceBuildParallelStress runs several sharded neighborhood-graph
// builds concurrently with high worker counts, so the race detector
// exercises the work-stealing shard counter, the per-worker partials, and
// the merge. Built only under -race as a regression guard; equivalence with
// the sequential builder is proven by TestBuildShardedDecoderEquivalence.
func TestRaceBuildParallelStress(t *testing.T) {
	insts := []core.Instance{
		core.NewAnonymousInstance(graph.Path(3)),
		core.NewAnonymousInstance(graph.Path(4)),
		core.NewAnonymousInstance(graph.MustCycle(4)),
		core.NewAnonymousInstance(graph.MustCycle(5)),
	}
	seq, err := build(revealDecoder(), allLabelings([]string{"0", "1", "x"}, insts...))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, workers := range []int{2, 4, 8, 16} {
		wg.Add(1)
		go func(workers int) {
			defer wg.Done()
			par, err := BuildShardedCtx(context.Background(), obs.Scope{}, revealDecoder(), ShardedAllLabelings([]string{"0", "1", "x"}, insts...), 0, workers)
			if err != nil {
				t.Errorf("workers=%d: %v", workers, err)
				return
			}
			if par.Size() != seq.Size() || par.EdgeCount() != seq.EdgeCount() || par.LoopCount() != seq.LoopCount() {
				t.Errorf("workers=%d: parallel (%d,%d,%d) != sequential (%d,%d,%d)",
					workers, par.Size(), par.EdgeCount(), par.LoopCount(),
					seq.Size(), seq.EdgeCount(), seq.LoopCount())
			}
		}(workers)
	}
	wg.Wait()
}
