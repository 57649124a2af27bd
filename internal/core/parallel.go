package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"

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
// (graph.LabelingCursor) searched by a worker pool with rank-based
// pruning: a worker rereads the best violation rank seen so far once per
// block of sweepBlock labelings and abandons its shard at the first
// labeling ranked past it, and the minimum-rank violation is reported, so
// the answer is the sequential search's at every shard/worker count.
// shards <= 0 selects 4 per worker; workers <= 0 selects GOMAXPROCS. The
// search runs as one shard on one worker when only one worker or shard
// results, or when the labeling space is too large for 64-bit ranks.
//
// Cancellation is cooperative: every worker polls ctx at each shard claim
// and at the start of each block of sweepBlock labelings, so once ctx
// fires a worker checks at most the rest of its current block, sweepBlock
// labelings (pinned by TestExhaustiveCancelWithinBlock). The pool drains
// before the call returns (no goroutine outlives it — pinned by
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
		// One shard is the whole space in EnumLabelings order: nothing is
		// pruned before the first violation, which ends the shard, so ranks
		// past 64 bits are never compared.
		sc.Counter("core.sweep.sequential_fallback").Inc()
		shards, workers = 1, 1
	}

	span := sc.Span(sc.Label("core.exhaustive"))
	span.SetAttr("shards", fmt.Sprint(shards))
	span.SetAttr("workers", fmt.Sprint(workers))
	defer span.End()
	sc.Prog().StartPhase(sc.Label("exhaustive"), int64(shards))
	defer sc.Prog().EndPhase()
	shardsDone := sc.Counter("core.sweep.shards.done")
	pruned := sc.Counter("core.sweep.shards.pruned")

	stop := cancel.NewStop(ctx)
	var first cancel.First
	sweeps := make([]*labelSweep, workers)
	cancel.Each(stop, shards, workers, func(w, s int) bool {
		// Each worker owns a sweep: templates and verdict memos are
		// per-goroutine, so workers never contend on them.
		sweep, err := workerSweep(sweeps, w, d, lang, inst, alphabet)
		if err != nil {
			first.Offer(0, err)
			return false
		}
		sweep.sweepShard(s, shards, stop, &first, pruned)
		shardsDone.Inc()
		sc.Prog().Add(1)
		return true
	})
	for _, sweep := range sweeps {
		sweep.harvest(sc)
	}
	if err := cancel.Err(ctx, "exhaustive soundness sweep"); err != nil {
		sc.Counter("core.sweep.cancelled").Inc()
		return err
	}

	r := first.Best()
	if r == math.MaxUint64 {
		return nil
	}
	sc.Counter("core.sweep.violations").Inc()
	// Rank only: it identifies the violating labeling without revealing any
	// certificate content (hiding contract). The full witness stays in the
	// returned error, which never reaches an obs sink.
	span.SetAttr("violation_rank", fmt.Sprint(r))
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

// FuzzStrongSoundness checks strong soundness of d against
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
// Cancellation is checked at every trial claim: once ctx fires, each
// worker finishes at most the trial it is checking (pinned by
// TestFuzzCancelWithinTrial), the pool drains, and the error wraps
// context.Cause(ctx). A cancelled run never reports a violation. A nil ctx
// is the never-cancelled context (internal/cancel).
//
// Trials advance the scope's progress phase, and the per-worker sweep
// tallies are harvested into sc after the worker barrier. A zero Scope
// makes every instrument call a no-op.
func FuzzStrongSoundness(ctx context.Context, sc obs.Scope, d Decoder, lang Language, inst Instance, trials int, rng *rand.Rand, gen func(node int, rng *rand.Rand) string, workers int) error {
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

	var first cancel.First
	sweeps := make([]*labelSweep, workers)
	cancel.Each(cancel.NewStop(ctx), trials, workers, func(w, t int) bool {
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
