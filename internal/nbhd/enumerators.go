package nbhd

import (
	"fmt"

	"hidinglcp/internal/core"
	"hidinglcp/internal/graph"
)

// fromLabeled returns an enumerator over a fixed list of labeled instances
// (see ShardedFromLabeled).
func fromLabeled(insts ...core.Labeled) Enumerator {
	return func(yield func(core.Labeled) bool) error {
		for _, l := range insts {
			if err := l.Validate(); err != nil {
				return fmt.Errorf("instance %v: %w", l.G, err)
			}
			if !yield(l) {
				return nil
			}
		}
		return nil
	}
}

// proverLabeled returns an enumerator that labels each instance with the
// scheme prover's certificate (see ShardedProverLabeled).
func proverLabeled(s core.Scheme, insts ...core.Instance) Enumerator {
	return func(yield func(core.Labeled) bool) error {
		for _, inst := range insts {
			labels, err := s.Prover.Certify(inst)
			if err != nil {
				return fmt.Errorf("prover on %v: %w", inst.G, err)
			}
			l, err := core.NewLabeled(inst, labels)
			if err != nil {
				return err
			}
			if !yield(l) {
				return nil
			}
		}
		return nil
	}
}

// allLabelingsShard enumerates the labelings the instance-major deal
// assigns to the given shard: each instance's labeling space splits into
// parts = ceil(shards/len(insts)) labeling-prefix parts
// (graph.EnumLabelingsShard) — one part whenever there are at least as many
// instances as shards — and the (instance, part) units, taken in sequential
// order, go round-robin to the shards. shard 0 of 1 is the full sequential
// enumeration. One label slice is reused across all labelings of one
// instance; see ShardedAllLabelings.
func allLabelingsShard(alphabet []string, insts []core.Instance, shard, shards int) Enumerator {
	parts := 1
	if len(insts) > 0 {
		parts = (shards + len(insts) - 1) / len(insts)
	}
	return func(yield func(core.Labeled) bool) error {
		for j, inst := range insts {
			// Instance j's units j*parts … j*parts+parts-1 land on
			// consecutive shards, and parts <= shards, so at most one of
			// them is this shard's: the one with part ≡ shard − j·parts.
			part := ((shard-j*parts)%shards + shards) % shards
			if part >= parts {
				continue
			}
			stopped := false
			labels := make([]string, inst.G.N())
			graph.EnumLabelingsShard(inst.G.N(), len(alphabet), part, parts, func(idx []int) bool {
				for v, a := range idx {
					labels[v] = alphabet[a]
				}
				if !yield(core.MustNewLabeled(inst, labels)) {
					stopped = true
					return false
				}
				return true
			})
			if stopped {
				return nil
			}
		}
		return nil
	}
}
