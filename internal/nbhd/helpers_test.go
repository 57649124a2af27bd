package nbhd

import (
	"context"
	"fmt"
	"sync/atomic"

	"hidinglcp/internal/core"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/obs"
)

// build is the sequential Lemma 3.1 construction over a plain enumerator:
// BuildShardedCtx with one shard and one worker, which Shards(1) maps to
// the enumerator itself.
func build(d core.Decoder, enum Enumerator) (*NGraph, error) {
	return BuildShardedCtx(context.Background(), obs.Scope{}, d, &sharded{seq: enum}, 1, 1)
}

// allLabelings is the sequential enumeration of ShardedAllLabelings.
func allLabelings(alphabet []string, insts ...core.Instance) Enumerator {
	return allLabelingsShard(alphabet, insts, 0, 1)
}

// shardedAllPortsAllLabelings extends ShardedAllLabelings by also ranging
// over every port assignment of every instance; exponential in both, so
// micro universes only. It is sharded on the labeling dimension: every
// shard ranges over every port assignment but enumerates only its own
// labeling-prefix slice under each.
func shardedAllPortsAllLabelings(alphabet []string, insts ...core.Instance) ShardedEnumerator {
	return &sharded{
		seq:   allPortsAllLabelingsShard(alphabet, insts, 0, 1),
		shard: func(i, k int) Enumerator { return allPortsAllLabelingsShard(alphabet, insts, i, k) },
	}
}

// allPortsAllLabelings is the sequential enumeration of
// shardedAllPortsAllLabelings.
func allPortsAllLabelings(alphabet []string, insts ...core.Instance) Enumerator {
	return allPortsAllLabelingsShard(alphabet, insts, 0, 1)
}

// allPortsAllLabelingsShard ranges over every port assignment of every
// instance, enumerating only the given labeling-prefix shard under each.
func allPortsAllLabelingsShard(alphabet []string, insts []core.Instance, shard, shards int) Enumerator {
	return func(yield func(core.Labeled) bool) error {
		for _, inst := range insts {
			stopped := false
			graph.EnumPorts(inst.G, func(pt *graph.Ports) bool {
				withPorts := inst
				withPorts.Prt = pt
				inner := allLabelingsShard(alphabet, []core.Instance{withPorts}, shard, shards)
				if err := inner(func(l core.Labeled) bool {
					if !yield(l) {
						stopped = true
						return false
					}
					return true
				}); err != nil {
					panic(fmt.Sprintf("shardedAllPortsAllLabelings: %v", err))
				}
				return !stopped
			})
			if stopped {
				return nil
			}
		}
		return nil
	}
}

// shardEnumerator adapts an arbitrary Enumerator: shard i of k walks the
// full enumeration and keeps the instances at sequence positions ≡ i mod k.
func shardEnumerator(e Enumerator) ShardedEnumerator {
	return &sharded{
		seq: e,
		shard: func(i, k int) Enumerator {
			return func(yield func(core.Labeled) bool) error {
				idx := 0
				return e(func(l core.Labeled) bool {
					mine := idx%k == i
					idx++
					if !mine {
						return true
					}
					return yield(l)
				})
			}
		},
	}
}

// countInstances drains the sharded enumerator through ForEachShard and
// returns the number of instances produced.
func countInstances(se ShardedEnumerator, shards, workers int) (int, error) {
	var n atomic.Int64
	err := ForEachShard(context.Background(), obs.Scope{}, se, shards, workers, func(int, core.Labeled) bool {
		n.Add(1)
		return true
	})
	return int(n.Load()), err
}
