package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"hidinglcp/internal/cancel"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/obs"
)

// ExhaustiveStrongSoundnessParallelCtx checks strong soundness of d against
// every labeling of inst over the given label alphabet and returns the
// violation at the lexicographically first violating labeling, or nil. The
// search space is |alphabet|^n; callers keep n small. Views are extracted
// once per node via templates and decoder verdicts are memoized per
// neighborhood labeling, which the equivalence tests pin to the naive
// per-labeling check.
//
// The labeling space is split into labeling-prefix shards
// (graph.EnumLabelingsShard) searched by a worker pool with rank-based
// pruning: workers abandon any shard position whose labeling rank exceeds
// the best violation seen so far, and the minimum-rank violation is
// reported, so the answer is the sequential search's at every shard/worker
// count. shards <= 0 selects 4 per worker; workers <= 0 selects GOMAXPROCS.
// The search runs sequentially when only one worker or shard results, or
// when the labeling space is too large for 64-bit ranks.
//
// Cancellation is cooperative: when ctx fires, every worker abandons its
// current shard at the next labeling checkpoint, the pool drains before
// the call returns (no goroutine outlives it — pinned by
// TestProbeExhaustiveStrongSoundnessParallelCancel in internal/sanitize),
// and the error wraps context.Cause(ctx). A cancelled search never reports
// a violation: its partial answer would depend on scheduling. A nil ctx is
// the never-cancelled context (internal/cancel).
//
// Per-worker sweep tallies (labelings checked, decoder memo hits, language
// memo hits) are harvested into sc after the worker barrier, shard
// completion advances the scope's progress phase, and pruned shard
// abandonments are counted. A zero Scope makes every instrument call a
// no-op; verdicts are never affected by instrumentation (enforced by the
// sanitizer's instrumentation probe).
func ExhaustiveStrongSoundnessParallelCtx(ctx context.Context, sc obs.Scope, d Decoder, lang Language, inst Instance, alphabet []string, shards, workers int) error {
	n := inst.G.N()
	shards, workers = cancel.Workers(shards, workers, 4)
	if workers == 1 || shards == 1 || !graph.LabelingRankFits(n, len(alphabet)) {
		sc.Counter("core.sweep.sequential_fallback").Inc()
		return exhaustiveSequential(ctx, sc, d, lang, inst, alphabet)
	}

	span := sc.Span(sc.Label("core.exhaustive"))
	span.SetAttr("shards", fmt.Sprint(shards))
	span.SetAttr("workers", fmt.Sprint(workers))
	defer span.End()
	sc.Prog().StartPhase(sc.Label("exhaustive"), int64(shards))
	defer sc.Prog().EndPhase()
	if sc.EventsEnabled() {
		sc.EmitSpanEvent(span, obs.LevelInfo, "core.sweep.start",
			obs.Fi("shards", int64(shards)), obs.Fi("workers", int64(workers)))
	}
	shardsDone := sc.Counter("core.sweep.shards.done")
	pruned := sc.Counter("core.sweep.shards.pruned")

	// Cancellation checkpoints sit at shard claims and at every labeling:
	// the watcher arms the flag when ctx fires and workers abandon their
	// current shard position.
	var aborted atomic.Bool
	var first cancel.First
	sweeps := make([]*labelSweep, workers)
	cancel.Each(ctx, &aborted, shards, workers, func(w, s int) bool {
		// Each worker owns a sweep: templates and verdict memos are
		// per-goroutine, so workers never contend on them.
		sweep, err := workerSweep(sweeps, w, d, lang, inst, alphabet)
		if err != nil {
			first.Offer(0, err)
			return false
		}
		graph.EnumLabelingsShard(n, len(alphabet), s, shards, func(idx []int) bool {
			if aborted.Load() {
				return false
			}
			r := sweep.seek(idx)
			// Ranks increase within a shard, so everything past the
			// best violation is prunable: any violation there would
			// rank higher and lose to the recorded one anyway.
			if r >= first.Best() {
				pruned.Inc()
				return false
			}
			if err := sweep.evaluate(); err != nil {
				first.Offer(r, err)
				return false
			}
			return true
		})
		shardsDone.Inc()
		sc.Prog().Add(1)
		return true
	})
	for _, sweep := range sweeps {
		sweep.harvest(sc)
	}
	if err := cancel.Err(ctx, "exhaustive soundness sweep"); err != nil {
		sc.Counter("core.sweep.cancelled").Inc()
		if sc.EventsEnabled() {
			sc.EmitSpanEvent(span, obs.LevelWarn, "core.sweep.cancelled",
				obs.Fi("shards", int64(shards)))
		}
		return err
	}

	r := first.Best()
	if r == math.MaxUint64 {
		if sc.EventsEnabled() {
			sc.EmitSpanEvent(span, obs.LevelInfo, "core.sweep.done",
				obs.Fi("violations", 0))
		}
		return nil
	}
	sc.Counter("core.sweep.violations").Inc()
	if sc.EventsEnabled() {
		// Rank only: it identifies the violating labeling without revealing
		// any certificate content (hiding contract). The full witness stays
		// in the returned error, which never reaches an obs sink.
		sc.EmitSpanEvent(span, obs.LevelWarn, "core.sweep.violation",
			obs.F("rank", fmt.Sprint(r)))
	}
	return first.Err()
}

// workerSweep returns worker w's labelSweep, building it on the worker's
// first claim. A construction error is the same for every worker.
func workerSweep(sweeps []*labelSweep, w int, d Decoder, lang Language, inst Instance, alphabet []string) (*labelSweep, error) {
	if sweeps[w] == nil {
		s, err := newLabelSweep(d, lang, inst, alphabet)
		if err != nil {
			return nil, fmt.Errorf("extracting views: %w", err)
		}
		sweeps[w] = s
	}
	return sweeps[w], nil
}

// exhaustiveSequential is the single-goroutine exhaustive search with a
// per-labeling cancellation checkpoint: the path
// ExhaustiveStrongSoundnessParallelCtx falls back to when the search
// degenerates to one worker or the labeling space outgrows 64-bit ranks,
// and the in-package oracle the parallel search is tested against. It
// returns the first violation in EnumLabelings order; a cancelled search
// never reports a violation.
func exhaustiveSequential(ctx context.Context, sc obs.Scope, d Decoder, lang Language, inst Instance, alphabet []string) error {
	n := inst.G.N()
	sweep, serr := newLabelSweep(d, lang, inst, alphabet)
	if serr != nil {
		return fmt.Errorf("extracting views: %w", serr)
	}
	var aborted atomic.Bool
	release := cancel.Watch(ctx, &aborted)
	defer release()
	var violation error
	graph.EnumLabelings(n, len(alphabet), func(idx []int) bool {
		if aborted.Load() {
			return false
		}
		if err := sweep.check(idx); err != nil {
			violation = err
			return false
		}
		return true
	})
	sweep.harvest(sc)
	if err := cancel.Err(ctx, "exhaustive soundness sweep"); err != nil {
		sc.Counter("core.sweep.cancelled").Inc()
		return err
	}
	return violation
}

// FuzzStrongSoundnessParallelCtx checks strong soundness of d against
// trials random labelings of inst, with labels drawn by gen (which receives
// the node and the rng), and returns the violation at the lowest trial
// index, or nil. The labelings are pre-drawn from rng in sequential trial
// order and checked by a pool of workers (workers <= 0 selects GOMAXPROCS),
// so the reported violation is the one a sequential fuzzer drawing the same
// stream finds first, at every worker count. (When a violation exists, a
// sequential fuzzer stops drawing at the violating trial while this one has
// already drawn all of them, so the final rng positions differ; the
// reported violation does not.)
//
// Cancellation is checked at every trial claim: when ctx fires, the
// workers stop claiming, the pool drains, and the error wraps
// context.Cause(ctx). A cancelled run never reports a violation. A nil ctx
// is the never-cancelled context (internal/cancel).
//
// Trials advance the scope's progress phase, and the per-worker sweep
// tallies are harvested into sc after the worker barrier. A zero Scope
// makes every instrument call a no-op.
func FuzzStrongSoundnessParallelCtx(ctx context.Context, sc obs.Scope, d Decoder, lang Language, inst Instance, trials int, rng *rand.Rand, gen func(node int, rng *rand.Rand) string, workers int) error {
	n := inst.G.N()
	_, workers = cancel.Workers(trials, workers, 1)
	span := sc.Span(sc.Label("core.fuzz"))
	span.SetAttr("trials", fmt.Sprint(trials))
	span.SetAttr("workers", fmt.Sprint(workers))
	defer span.End()
	sc.Prog().StartPhase(sc.Label("fuzz"), int64(trials))
	defer sc.Prog().EndPhase()
	trialsChecked := sc.Counter("core.fuzz.trials.checked")

	drawn := make([][]string, trials)
	for t := range drawn {
		labels := make([]string, n)
		for v := range labels {
			labels[v] = gen(v, rng)
		}
		drawn[t] = labels
	}

	var aborted atomic.Bool
	var first cancel.First
	sweeps := make([]*labelSweep, workers)
	cancel.Each(ctx, &aborted, trials, workers, func(w, t int) bool {
		// Trials are claimed in increasing order, so once t passes the
		// best violation every later claim does too.
		if uint64(t) >= first.Best() {
			return false
		}
		sweep, err := workerSweep(sweeps, w, d, lang, inst, nil)
		if err == nil {
			err = sweep.checkLabels(drawn[t])
		}
		trialsChecked.Inc()
		sc.Prog().Add(1)
		if err != nil {
			first.Offer(uint64(t), err)
			return false
		}
		return true
	})
	for _, sweep := range sweeps {
		sweep.harvest(sc)
	}
	if err := cancel.Err(ctx, "strong soundness fuzz"); err != nil {
		sc.Counter("core.fuzz.cancelled").Inc()
		return err
	}

	t := first.Best()
	if t == math.MaxUint64 {
		return nil
	}
	sc.Counter("core.fuzz.violations").Inc()
	return fmt.Errorf("trial %d: %w", t, first.Err())
}
