package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"hidinglcp/internal/graph"
	"hidinglcp/internal/obs"
)

// fuzzStrongSoundness is the sequential fuzzer: it draws each trial's
// labeling from rng and checks it before drawing the next, returning the
// first violation. It is the reference FuzzStrongSoundnessParallelCtx is
// pinned to at every worker count.
func fuzzStrongSoundness(d Decoder, lang Language, inst Instance, trials int, rng *rand.Rand, gen func(node int, rng *rand.Rand) string) error {
	n := inst.G.N()
	sweep, err := newLabelSweep(d, lang, inst, nil)
	if err != nil {
		return fmt.Errorf("extracting views: %w", err)
	}
	for t := 0; t < trials; t++ {
		labels := make([]string, n)
		for v := range labels {
			labels[v] = gen(v, rng)
		}
		if err := sweep.checkLabels(labels); err != nil {
			return fmt.Errorf("trial %d: %w", t, err)
		}
	}
	return nil
}

// TestFuzzParallelCancelled: a fuzz run under an already-cancelled context
// reports the cancellation, never the violation an unsound decoder would
// otherwise produce, and checks no trial.
func TestFuzzParallelCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	gen := func(_ int, rng *rand.Rand) string { return []string{"0", "1", "2"}[rng.Intn(3)] }
	for _, workers := range []int{1, 4} {
		sc := obs.NewScope()
		err := FuzzStrongSoundnessParallelCtx(ctx, sc, centerNonzeroDecoder(), TwoCol(), NewInstance(graph.MustCycle(5)), 200, rand.New(rand.NewSource(1)), gen, workers)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		var v *StrongSoundnessViolation
		if errors.As(err, &v) {
			t.Fatalf("workers=%d: cancelled fuzz reported a violation: %v", workers, err)
		}
		if got := sc.Counter("core.fuzz.trials.checked").Value(); got != 0 {
			t.Errorf("workers=%d: %d trials checked after cancellation", workers, got)
		}
		if got := sc.Counter("core.fuzz.cancelled").Value(); got != 1 {
			t.Errorf("workers=%d: core.fuzz.cancelled = %d, want 1", workers, got)
		}
	}
}

// TestExhaustiveCancelled: both the sharded search and its sequential
// fallback report an already-cancelled context instead of a violation.
func TestExhaustiveCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range []struct{ shards, workers int }{{1, 1}, {8, 4}} {
		err := ExhaustiveStrongSoundnessParallelCtx(ctx, obs.Scope{}, centerNonzeroDecoder(), TwoCol(), NewInstance(graph.MustCycle(5)), []string{"0", "1", "2"}, p.shards, p.workers)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("shards=%d workers=%d: err = %v, want context.Canceled", p.shards, p.workers, err)
		}
	}
}
