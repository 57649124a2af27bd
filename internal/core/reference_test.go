package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hidinglcp/internal/graph"
	"hidinglcp/internal/obs"
	"hidinglcp/internal/view"
)

// fuzzStrongSoundness is the sequential fuzzer: it draws each trial's
// labeling from rng and checks it before drawing the next, returning the
// first violation. It is the reference FuzzStrongSoundness is
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
		err := FuzzStrongSoundness(ctx, sc, centerNonzeroDecoder(), TwoCol(), NewInstance(graph.MustCycle(5)), 200, rand.New(rand.NewSource(1)), gen, workers)
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

// TestExhaustiveCancelWithinBlock pins how far a sweep runs past its
// cancellation: the decoder cancels the context on its first Decide, and
// each worker polls the context at the start of every block, so each
// finishes at most the block of sweepBlock labelings it is in. Every
// worker's first labeling calls the decoder, and a second worker's first
// Decide waits for the first one's cancel, so no worker starts a second
// block. The decoder is unsound on C7, so a run that ignored the
// cancellation would report a violation; the cancelled one reports only
// the cancellation.
func TestExhaustiveCancelWithinBlock(t *testing.T) {
	inst := NewAnonymousInstance(graph.MustCycle(7))
	alphabet := []string{"0", "1", "2"}
	if err := ExhaustiveStrongSoundnessParallelCtx(nil, obs.Scope{}, centerNonzeroDecoder(), TwoCol(), inst, alphabet, 0, 2); err == nil {
		t.Fatal("uncancelled sweep found no violation; the test needs an unsound decoder")
	}
	for _, workers := range []int{1, 2} {
		ctx, stop := context.WithCancel(context.Background())
		var once sync.Once
		d := NewDecoder(1, true, func(mu *view.View) bool {
			once.Do(stop)
			return mu.Labels[view.Center] != "0"
		})
		sc := obs.NewScope()
		err := ExhaustiveStrongSoundnessParallelCtx(ctx, sc, d, TwoCol(), inst, alphabet, 0, workers)
		stop()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		var v *StrongSoundnessViolation
		if errors.As(err, &v) {
			t.Fatalf("workers=%d: cancelled sweep reported a violation: %v", workers, err)
		}
		checked := sc.Counter("core.sweep.labelings.checked").Value()
		if limit := int64(workers * (sweepBlock + 1)); checked < 1 || checked > limit {
			t.Errorf("workers=%d: %d labelings checked after the first Decide cancelled, want 1..%d", workers, checked, limit)
		}
		if got := sc.Counter("core.sweep.cancelled").Value(); got != 1 {
			t.Errorf("workers=%d: core.sweep.cancelled = %d, want 1", workers, got)
		}
	}
}

// TestFuzzCancelWithinTrial pins how far a fuzz run goes past its
// cancellation: the decoder cancels the context on its first Decide, and
// each worker polls the context before every trial claim, so each finishes
// at most the trial it is checking. Every worker's first trial calls the
// decoder, and a second worker's first Decide waits for the first one's
// cancel, so no worker claims a second trial. The decoder is unsound on
// C5, so a run that ignored the cancellation would report a violation.
func TestFuzzCancelWithinTrial(t *testing.T) {
	inst := NewAnonymousInstance(graph.MustCycle(5))
	gen := func(_ int, rng *rand.Rand) string { return []string{"0", "1", "2"}[rng.Intn(3)] }
	const trials = 200
	if err := FuzzStrongSoundness(nil, obs.Scope{}, centerNonzeroDecoder(), TwoCol(), inst, trials, rand.New(rand.NewSource(1)), gen, 2); err == nil {
		t.Fatal("uncancelled fuzz found no violation; the test needs an unsound decoder")
	}
	for _, workers := range []int{1, 2} {
		ctx, stop := context.WithCancel(context.Background())
		var once sync.Once
		d := NewDecoder(1, true, func(mu *view.View) bool {
			once.Do(stop)
			return mu.Labels[view.Center] != "0"
		})
		sc := obs.NewScope()
		err := FuzzStrongSoundness(ctx, sc, d, TwoCol(), inst, trials, rand.New(rand.NewSource(1)), gen, workers)
		stop()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		var v *StrongSoundnessViolation
		if errors.As(err, &v) {
			t.Fatalf("workers=%d: cancelled fuzz reported a violation: %v", workers, err)
		}
		if got := sc.Counter("core.fuzz.trials.checked").Value(); got < 1 || got > int64(workers) {
			t.Errorf("workers=%d: %d trials checked after the first Decide cancelled, want 1..%d", workers, got, workers)
		}
		if got := sc.Counter("core.fuzz.cancelled").Value(); got != 1 {
			t.Errorf("workers=%d: core.fuzz.cancelled = %d, want 1", workers, got)
		}
	}
}
