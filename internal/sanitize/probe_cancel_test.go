package sanitize_test

import (
	"testing"

	"hidinglcp/internal/core"
	"hidinglcp/internal/decoders"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/nbhd"
	"hidinglcp/internal/sanitize"
)

// TestProbeBuildShardedCancel cancels the sharded build mid-decode (the
// cancel-stress CI job runs this under -race): zero leaked goroutines, a
// drained work-stealing queue, no partial graph, context.Canceled in the
// error chain.
func TestProbeBuildShardedCancel(t *testing.T) {
	s := decoders.DegreeOne()
	fam := decoders.DegOneFamily(4)
	alpha := decoders.DegOneAlphabet()

	leak, err := sanitize.ProbeBuildShardedCancel(
		s.Decoder, nbhd.ShardedAllLabelings(alpha, fam...), 64, 4)
	if leak != nil {
		t.Fatalf("cancelled BuildShardedCtx leaked goroutines: %v", leak.Error())
	}
	if err != nil {
		t.Fatalf("cancellation contract violated: %v", err)
	}
}

// TestProbeExhaustiveStrongSoundnessParallelCancel cancels the parallel
// soundness sweep mid-decode; same contract.
func TestProbeExhaustiveStrongSoundnessParallelCancel(t *testing.T) {
	s := decoders.DegreeOne()
	inst := core.NewAnonymousInstance(graph.Path(5))
	alpha := decoders.DegOneAlphabet()

	leak, err := sanitize.ProbeExhaustiveStrongSoundnessParallelCancel(
		s.Decoder, s.Promise.Lang, inst, alpha, 8, 2)
	if leak != nil {
		t.Fatalf("cancelled soundness sweep leaked goroutines: %v", leak.Error())
	}
	if err != nil {
		t.Fatalf("cancellation contract violated: %v", err)
	}
}
