package nbhd

import (
	"context"
	"fmt"
	"sync/atomic"

	"hidinglcp/internal/cancel"
	"hidinglcp/internal/core"
	"hidinglcp/internal/obs"
)

// ShardedEnumerator describes a labeled-instance space that can be
// deterministically partitioned into disjoint sub-enumerators, so that the
// parallel pipelines (BuildShardedCtx, ForEachShardCtx) can feed independent
// workers without a single producer goroutine on the hot path.
//
// The contract, pinned by the property tests in shard_test.go:
//
//   - Sequential() enumerates the whole space in the canonical order the
//     non-sharded enumerator of the same family uses.
//   - Shards(k) splits the space into k enumerators. Every instance of
//     Sequential() is produced by exactly one shard (no duplicates, no
//     omissions), and each shard preserves the relative sequential order.
//   - k <= 1 yields the sequential enumeration as a single shard.
//
// Because the partition is deterministic and results merge through
// order-insensitive set union (see BuildShardedCtx), every consumer is
// bit-identical to its sequential counterpart at any shard/worker count.
type ShardedEnumerator interface {
	Sequential() Enumerator
	Shards(k int) []Enumerator
}

// sharded is the concrete ShardedEnumerator: a canonical sequential order
// plus a constructor for the i-th of k sub-enumerators.
type sharded struct {
	seq   Enumerator
	shard func(i, k int) Enumerator
}

func (s *sharded) Sequential() Enumerator { return s.seq }

func (s *sharded) Shards(k int) []Enumerator {
	if k <= 1 {
		return []Enumerator{s.seq}
	}
	out := make([]Enumerator, k)
	for i := range out {
		out[i] = s.shard(i, k)
	}
	return out
}

// subList returns every k-th element of xs starting at i — the index-residue
// slice used to shard finite instance lists.
func subList[T any](xs []T, i, k int) []T {
	var out []T
	for j := i; j < len(xs); j += k {
		out = append(out, xs[j])
	}
	return out
}

// ShardedFromLabeled enumerates a fixed list of labeled instances, e.g. the
// hand-built instance pairs from the paper's hiding proofs (Figs. 3, 5, and
// the P8/P7 and two-ID constructions of Section 7), with index-residue
// sharding: shard i of k holds the instances at positions i, i+k, i+2k, ...
func ShardedFromLabeled(insts ...core.Labeled) ShardedEnumerator {
	return &sharded{
		seq:   fromLabeled(insts...),
		shard: func(i, k int) Enumerator { return fromLabeled(subList(insts, i, k)...) },
	}
}

// ShardedProverLabeled labels each instance with the scheme prover's
// certificate, with index-residue sharding over the instance list. Each
// shard runs the prover only on its own instances, so certification cost
// parallelizes along with view extraction. Instances the prover rejects
// produce an error (they are outside the promise class and should not be
// enumerated).
func ShardedProverLabeled(s core.Scheme, insts ...core.Instance) ShardedEnumerator {
	return &sharded{
		seq:   proverLabeled(s, insts...),
		shard: func(i, k int) Enumerator { return proverLabeled(s, subList(insts, i, k)...) },
	}
}

// ShardedAllLabelings produces every labeling of one instance per
// port-preserving isomorphism class of insts over the given alphabet
// (|alphabet|^n labelings per instance). This is the Lemma 3.1 search
// restricted to a family and an alphabet; callers keep instances small.
//
// The instance list is quotiented when the enumerator is constructed
// (core.Representatives): the first instance of each class, in input
// order, stands for the class. Isomorphic instances contribute the same
// views and view edges, so every build over the quotient equals the build
// over insts; DegOneFamily(4), for one, holds 79 instances in 6 classes.
// Disconnected instances are never merged.
//
// Shards are dealt instance-major over the representatives: with k shards
// each representative splits into ceil(k/classes) labeling-prefix parts
// (graph.EnumLabelingsShard) — a single part whenever there are at least
// as many classes as shards — and the (instance, part) units go
// round-robin to the shards in sequential order. No shard holds two parts
// of one instance, so with at least as many classes as shards one builder
// extracts each instance's templates and writes their key skeletons once,
// for all of the instance's labelings. The quotient often leaves fewer classes than shards
// (6 classes under the default 4 shards per worker on two workers); then
// an instance's parts land on several shards, and which worker reuses a
// template depends on scheduling. A single-instance space degenerates to
// the plain labeling-prefix split.
//
// The yielded Labeled's label slice is reused across labelings of one
// instance and is valid only during the yield; copy it to retain (the
// builders copy label strings into views immediately).
func ShardedAllLabelings(alphabet []string, insts ...core.Instance) ShardedEnumerator {
	reps := core.Representatives(insts)
	return &sharded{
		seq:   allLabelingsShard(alphabet, reps, 0, 1),
		shard: func(i, k int) Enumerator { return allLabelingsShard(alphabet, reps, i, k) },
	}
}

// shardsPerWorker oversubscribes workers so that the work-stealing drivers
// can smooth uneven shard costs: a worker finishing a cheap shard steals the
// next unclaimed one.
const shardsPerWorker = 4

// ForEachShardCtx drives the shards of se through a pool of workers.
// Workers claim unstarted shards in increasing order from a shared counter
// (work stealing, cancel.Each), so fn must be safe for concurrent calls
// from different worker indices; calls with the same worker index are
// sequential. Returning false from fn stops the whole drive early.
// shards <= 0 selects 4 per worker; workers <= 0 selects GOMAXPROCS.
//
// A failing shard stops only the shards numbered above it: those abandon
// their next instance, while lower-numbered shards run on. For a fixed
// shard count the error reported is therefore the lowest-numbered failing
// shard's, whatever the worker count and scheduling (unless fn stops the
// drive or ctx fires first).
//
// When ctx fires, the drive stops at the next per-instance checkpoint —
// the same stop flag every worker already polls between instances, so a
// never-cancelled context adds exactly one armed watcher goroutine and
// nothing to the per-instance hot path (pinned by
// BenchmarkBuildShardedCtx) — and the error wraps context.Cause(ctx). The
// engine layer re-tags such errors as engine.ErrCancelled. A nil ctx is the
// never-cancelled context (internal/cancel).
//
// sc counts completed and stolen shards (a steal is any claim beyond a
// worker's first), advances the scope's progress phase by one per finished
// shard, and emits a per-shard completion event when a tracer is attached.
// A zero Scope makes every instrument call a nil-receiver no-op.
func ForEachShardCtx(ctx context.Context, sc obs.Scope, se ShardedEnumerator, shards, workers int, fn func(worker int, l core.Labeled) bool) error {
	shards, workers = cancel.Workers(shards, workers, shardsPerWorker)
	enums := se.Shards(shards)
	shardsDone := sc.Counter("nbhd.shards.done")
	shardsStolen := sc.Counter("nbhd.shards.stolen")
	sc.Gauge("nbhd.shards.total").Set(int64(len(enums)))
	sc.Gauge("nbhd.workers").Set(int64(workers))
	claimed := make([]int, workers)
	var stop atomic.Bool
	var first cancel.First
	cancel.Each(ctx, &stop, len(enums), workers, func(w, i int) bool {
		// Claims increase, so once one passes a failed shard every later
		// claim of this worker would too.
		if uint64(i) > first.Best() {
			return false
		}
		if claimed[w] > 0 {
			shardsStolen.Inc()
		}
		claimed[w]++
		err := enums[i](func(l core.Labeled) bool {
			if stop.Load() || uint64(i) > first.Best() {
				return false
			}
			if !fn(w, l) {
				stop.Store(true)
				return false
			}
			return true
		})
		if err != nil {
			first.Offer(uint64(i), err)
			return false
		}
		shardsDone.Inc()
		sc.Prog().Add(1)
		sc.Event("shard.done", fmt.Sprintf("shard %d/%d on worker %d", i+1, len(enums), w))
		if sc.EventsEnabled() {
			// Per-shard, not per-instance: the event log sees O(shards)
			// appends for a build, never the hot enumeration path.
			sc.EmitEvent(obs.LevelDebug, "nbhd.shard.done",
				obs.Fi("shard", int64(i)),
				obs.Fi("worker", int64(w)),
				obs.Fi("stolen", int64(claimed[w]-1)))
		}
		return true
	})
	if err := first.Err(); err != nil {
		return err
	}
	if err := cancel.Err(ctx, "sharded enumeration"); err != nil {
		sc.Counter("nbhd.shards.cancelled").Inc()
		if sc.EventsEnabled() {
			sc.EmitEvent(obs.LevelWarn, "nbhd.enumeration.cancelled",
				obs.Fi("shards", int64(len(enums))))
		}
		return err
	}
	return nil
}
