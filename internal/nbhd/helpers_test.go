package nbhd

import (
	"context"
	"sync/atomic"

	"hidinglcp/internal/core"
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

// allPortsAllLabelings is the sequential enumeration of
// ShardedAllPortsAllLabelings.
func allPortsAllLabelings(alphabet []string, insts ...core.Instance) Enumerator {
	return allPortsAllLabelingsShard(alphabet, insts, 0, 1)
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

// countInstances drains the sharded enumerator through ForEachShardCtx and
// returns the number of instances produced.
func countInstances(se ShardedEnumerator, shards, workers int) (int, error) {
	var n atomic.Int64
	err := ForEachShardCtx(context.Background(), obs.Scope{}, se, shards, workers, func(int, core.Labeled) bool {
		n.Add(1)
		return true
	})
	return int(n.Load()), err
}
