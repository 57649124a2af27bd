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

// allLabelingsShard enumerates, per instance, the labelings assigned to the
// given shard of the labeling-prefix partition (graph.EnumLabelingsShard).
// shard 0 of 1 is the full sequential enumeration. One label slice is
// reused across all labelings of one instance; see ShardedAllLabelings.
func allLabelingsShard(alphabet []string, insts []core.Instance, shard, shards int) Enumerator {
	return func(yield func(core.Labeled) bool) error {
		for _, inst := range insts {
			stopped := false
			labels := make([]string, inst.G.N())
			graph.EnumLabelingsShard(inst.G.N(), len(alphabet), shard, shards, func(idx []int) bool {
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

// allPortsAllLabelingsShard ranges over every port assignment of every
// instance, enumerating only the given labeling-prefix shard under each.
func allPortsAllLabelingsShard(alphabet []string, insts []core.Instance, shard, shards int) Enumerator {
	return func(yield func(core.Labeled) bool) error {
		for _, inst := range insts {
			stopped := false
			graph.EnumPorts(inst.G, func(pt *graph.Ports) bool {
				withPorts := inst.WithPorts(pt)
				inner := allLabelingsShard(alphabet, []core.Instance{withPorts}, shard, shards)
				if err := inner(func(l core.Labeled) bool {
					if !yield(l) {
						stopped = true
						return false
					}
					return true
				}); err != nil {
					panic(fmt.Sprintf("nbhd.ShardedAllPortsAllLabelings: %v", err))
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

// chain concatenates enumerators.
func chain(enums ...Enumerator) Enumerator {
	return func(yield func(core.Labeled) bool) error {
		for _, e := range enums {
			stopped := false
			if err := e(func(l core.Labeled) bool {
				if !yield(l) {
					stopped = true
					return false
				}
				return true
			}); err != nil {
				return err
			}
			if stopped {
				return nil
			}
		}
		return nil
	}
}

// ClassInstances builds anonymous instances (default ports, no IDs) from a
// list of graphs, filtered by pred (pass nil for no filter). It is a
// convenience for assembling promise-class families.
func ClassInstances(gs []*graph.Graph, pred func(*graph.Graph) bool) []core.Instance {
	var out []core.Instance
	for _, g := range gs {
		if pred != nil && !pred(g) {
			continue
		}
		out = append(out, core.NewAnonymousInstance(g))
	}
	return out
}
