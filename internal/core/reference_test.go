package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

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

// awaitWatchers blocks until no cancel.Watch watcher is left: every
// goroutine cancel.Go started has begun running (one that has not shows
// only its entry frame, cancel.Go.func1) and none is in a watcher, so each
// watcher has armed its flag, or been released, and exited.
func awaitWatchers(t *testing.T) {
	deadline := time.Now().Add(10 * time.Second)
	buf := make([]byte, 1<<20)
	for {
		dump := string(buf[:runtime.Stack(buf, true)])
		pending := strings.Contains(dump, "internal/cancel.Watch.func")
		for _, g := range strings.Split(dump, "\n\n") {
			if frames := strings.SplitN(g, "\n", 3); len(frames) > 1 && strings.HasPrefix(frames[1], "hidinglcp/internal/cancel.Go.func1(") {
				pending = true
			}
		}
		if !pending {
			return
		}
		if time.Now().After(deadline) {
			t.Error("cancellation watcher still pending after 10s")
			return
		}
		runtime.Gosched()
	}
}

// TestExhaustiveCancelWithinBlock pins how far a sweep runs past its
// cancellation: the decoder cancels the context on its first Decide and
// waits until the sweep's stop flag is armed, so each worker finishes at
// most the block of sweepBlock labelings it is in. Every worker's first
// labeling calls the decoder, so no worker starts a second block. The
// decoder is unsound on C7, so a run that ignored the cancellation would
// report a violation; the cancelled one reports only the cancellation.
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
			once.Do(func() {
				stop()
				awaitWatchers(t)
			})
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
