package nbhd

import (
	"context"
	"fmt"
	"runtime"
	"sync"
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

// ShardedAllLabelings produces every labeling of every instance over the
// given alphabet (|alphabet|^n labelings per instance). This is the
// Lemma 3.1 search restricted to a family and an alphabet; callers keep
// instances small. The labeling space of every instance is split by
// labeling prefix (graph.EnumLabelingsShard): all shards walk the instance
// list in order, each enumerating only its own slice of the labelings. The
// yielded Labeled's label slice is reused across labelings of one instance
// and is valid only during the yield; copy it to retain (the builders copy
// label strings into views immediately).
func ShardedAllLabelings(alphabet []string, insts ...core.Instance) ShardedEnumerator {
	return &sharded{
		seq:   allLabelingsShard(alphabet, insts, 0, 1),
		shard: func(i, k int) Enumerator { return allLabelingsShard(alphabet, insts, i, k) },
	}
}

// ShardedAllPortsAllLabelings extends ShardedAllLabelings by also ranging
// over every port assignment of every instance graph; exponential in both,
// so micro universes only. It is sharded on the labeling dimension: every
// shard ranges over every port assignment but enumerates only its own
// labeling-prefix slice under each.
func ShardedAllPortsAllLabelings(alphabet []string, insts ...core.Instance) ShardedEnumerator {
	return &sharded{
		seq:   allPortsAllLabelingsShard(alphabet, insts, 0, 1),
		shard: func(i, k int) Enumerator { return allPortsAllLabelingsShard(alphabet, insts, i, k) },
	}
}

// ShardedChain concatenates sharded enumerators: the sequential order chains
// the children's sequential orders, and shard i chains the children's i-th
// shards, preserving disjointness and relative order.
func ShardedChain(ses ...ShardedEnumerator) ShardedEnumerator {
	return &sharded{
		seq: func(yield func(core.Labeled) bool) error {
			enums := make([]Enumerator, len(ses))
			for j, se := range ses {
				enums[j] = se.Sequential()
			}
			return chain(enums...)(yield)
		},
		shard: func(i, k int) Enumerator {
			return func(yield func(core.Labeled) bool) error {
				enums := make([]Enumerator, len(ses))
				for j, se := range ses {
					enums[j] = se.Shards(k)[i]
				}
				return chain(enums...)(yield)
			}
		},
	}
}

// defaultShardCount oversubscribes workers so that the work-stealing drivers
// can smooth uneven shard costs: a worker finishing a cheap shard steals the
// next unclaimed one.
const shardsPerWorker = 4

func resolveShardsWorkers(shards, workers int) (int, int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if shards <= 0 {
		shards = shardsPerWorker * workers
	}
	if workers > shards {
		workers = shards
	}
	return shards, workers
}

// ForEachShardCtx drives the shards of se through a pool of workers.
// Workers claim unstarted shards from a shared counter (work stealing), so
// fn must be safe for concurrent calls from different worker indices; calls
// with the same worker index are sequential. Returning false from fn stops
// the whole drive early. shards <= 0 selects 4 per worker; workers <= 0
// selects GOMAXPROCS.
//
// When several shards fail, the error of the lowest-numbered failing shard
// is reported, keeping the result independent of scheduling.
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
	shards, workers = resolveShardsWorkers(shards, workers)
	enums := se.Shards(shards)
	shardsDone := sc.Counter("nbhd.shards.done")
	shardsStolen := sc.Counter("nbhd.shards.stolen")
	sc.Gauge("nbhd.shards.total").Set(int64(len(enums)))
	sc.Gauge("nbhd.workers").Set(int64(workers))
	errs := make([]error, len(enums))
	var next atomic.Int64
	var stop atomic.Bool
	// Cancellation rides the existing stop flag: the watcher arms it when
	// ctx fires, every worker observes it at its next instance (the same
	// checkpoint early-stopping fn returns use), and the release reclaims
	// the watcher before this function returns.
	release := cancel.Watch(ctx, &stop)
	defer release()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			claimed := 0
			for {
				i := int(next.Add(1)) - 1
				if i >= len(enums) || stop.Load() {
					return
				}
				if claimed > 0 {
					shardsStolen.Inc()
				}
				claimed++
				err := enums[i](func(l core.Labeled) bool {
					if stop.Load() {
						return false
					}
					if !fn(w, l) {
						stop.Store(true)
						return false
					}
					return true
				})
				if err != nil {
					errs[i] = err
					stop.Store(true)
					return
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
						obs.Fi("stolen", int64(claimed-1)))
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
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
