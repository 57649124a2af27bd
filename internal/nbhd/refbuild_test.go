package nbhd

import (
	"context"
	"sort"
	"testing"

	"hidinglcp/internal/core"
	"hidinglcp/internal/decoders"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/obs"
	"hidinglcp/internal/view"
)

// referenceBuild is the historical string-keyed Lemma 3.1 construction,
// retained here verbatim in spirit as the differential oracle for the
// interned fast path: per-view extraction, per-occurrence decoding, and
// map[string] dedupe tables keyed by the canonical key. Sorting those keys
// gives the BinKey node order assembly must reproduce.
func referenceBuild(t *testing.T, d core.Decoder, enum Enumerator) (keys []string, edges map[[2]string]bool, loops map[string]bool) {
	t.Helper()
	accepting := map[string]bool{}
	views := map[string]*view.View{}
	edges = map[[2]string]bool{}
	loops = map[string]bool{}
	err := enum(func(l core.Labeled) bool {
		n := l.G.N()
		nodeKey := make([]string, n)
		for v := 0; v < n; v++ {
			mu, err := view.Extract(l.G, l.Prt, l.IDs, l.Labels, l.NBound, v, d.Rounds())
			if err != nil {
				t.Fatalf("reference extraction: %v", err)
			}
			if d.Anonymous() {
				mu = mu.Anonymize()
			}
			k := mu.Key()
			nodeKey[v] = k
			if _, ok := views[k]; !ok {
				views[k] = mu
			}
			if d.Decide(mu) {
				accepting[k] = true
			}
		}
		for _, e := range l.G.Edges() {
			ka, kb := nodeKey[e[0]], nodeKey[e[1]]
			if ka == kb {
				loops[ka] = true
				continue
			}
			if ka > kb {
				ka, kb = kb, ka
			}
			edges[[2]string{ka, kb}] = true
		}
		return true
	})
	if err != nil {
		t.Fatalf("reference enumeration: %v", err)
	}
	for k := range accepting {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// Filter edge and loop tables down to accepting endpoints, as assembly
	// does.
	for e := range edges {
		if !accepting[e[0]] || !accepting[e[1]] {
			delete(edges, e)
		}
	}
	for k := range loops {
		if !accepting[k] {
			delete(loops, k)
		}
	}
	return keys, edges, loops
}

// compareAgainstReference checks an NGraph node-for-node and edge-for-edge
// against the reference construction.
func compareAgainstReference(t *testing.T, ng *NGraph, keys []string, edges map[[2]string]bool, loops map[string]bool) {
	t.Helper()
	if ng.Size() != len(keys) {
		t.Fatalf("size %d, reference %d", ng.Size(), len(keys))
	}
	for i, k := range keys {
		if got := ng.ViewAt(i).Key(); got != k {
			t.Fatalf("node %d key %q, reference %q", i, got, k)
		}
		if ng.IndexOfView(ng.ViewAt(i)) != i {
			t.Fatalf("IndexOfView at %d does not roundtrip", i)
		}
	}
	gotEdges := map[[2]string]bool{}
	for _, e := range ng.Graph().Edges() {
		ka, kb := keys[e[0]], keys[e[1]]
		if ka > kb {
			ka, kb = kb, ka
		}
		gotEdges[[2]string{ka, kb}] = true
	}
	if len(gotEdges) != len(edges) {
		t.Fatalf("edge count %d, reference %d", len(gotEdges), len(edges))
	}
	for e := range edges {
		if !gotEdges[e] {
			t.Fatalf("reference edge %v missing", e)
		}
	}
	gotLoops := map[string]bool{}
	for i := range keys {
		if ng.HasLoop(i) {
			gotLoops[keys[i]] = true
		}
	}
	if len(gotLoops) != len(loops) {
		t.Fatalf("loop count %d, reference %d", len(gotLoops), len(loops))
	}
	for k := range loops {
		if !gotLoops[k] {
			t.Fatalf("reference loop at %q missing", k)
		}
	}
}

// TestBuildMatchesReference runs the interned fast-path build against the
// string-keyed reference on every decoder archetype: anonymous (DegreeOne,
// EvenCycle) and identifier-dependent (Shatter), over exhaustive labeling
// enumerations. The E15 slice and the all-ports sweeps repeat template
// skeletons across instances — different graphs, and one graph under each
// of its port numberings — so they check that a spliced skeleton key only
// ever puts views of one class together.
func TestBuildMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		d    core.Decoder
		enum func() Enumerator
	}{
		{
			"degree-one-exhaustive-n4",
			decoders.DegreeOne().Decoder,
			func() Enumerator {
				return allLabelings(decoders.DegOneAlphabet(), decoders.DegOneFamily(4)...)
			},
		},
		{
			"even-cycle-certified",
			decoders.EvenCycle().Decoder,
			func() Enumerator {
				ls, err := decoders.EvenCycleFamily(4, 6, 8)
				if err != nil {
					t.Fatal(err)
				}
				return fromLabeled(ls...)
			},
		},
		{
			"shatter-with-ids",
			decoders.Shatter().Decoder,
			func() Enumerator {
				g := graph.MustCycle(4)
				inst := core.Instance{G: g, Prt: graph.DefaultPorts(g), IDs: graph.SequentialIDs(4), NBound: 4}
				return allLabelings([]string{"0", "1"}, inst)
			},
		},
		{
			"degree-one-k3-E15-slice",
			decoders.DegreeOneK(3).Decoder,
			func() Enumerator {
				return allLabelings(decoders.DegOneKAlphabet(3), e15Slice()...)
			},
		},
		{
			"degree-one-all-ports",
			decoders.DegreeOne().Decoder,
			func() Enumerator {
				return allPortsAllLabelings(decoders.DegOneAlphabet(),
					core.NewAnonymousInstance(graph.Star(3)), core.NewAnonymousInstance(graph.Path(4)))
			},
		},
		{
			"shatter-with-ids-all-ports",
			decoders.Shatter().Decoder,
			func() Enumerator {
				g := graph.MustCycle(4)
				inst := core.Instance{G: g, Prt: graph.DefaultPorts(g), IDs: graph.SequentialIDs(4), NBound: 4}
				return allPortsAllLabelings([]string{"0", "1"}, inst)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			keys, edges, loops := referenceBuild(t, tc.d, tc.enum())
			ng, err := build(tc.d, tc.enum())
			if err != nil {
				t.Fatal(err)
			}
			compareAgainstReference(t, ng, keys, edges, loops)

			// The sharded construction must agree bit-for-bit as well.
			sng, err := BuildShardedCtx(context.Background(), obs.Scope{}, tc.d, shardedFromEnum(tc.enum), 4, 3)
			if err != nil {
				t.Fatal(err)
			}
			compareAgainstReference(t, sng, keys, edges, loops)
		})
	}

	// The production path: ShardedAllLabelings sweeps one instance per
	// port-preserving isomorphism class, and must build what the
	// reference builds from every instance of the family.
	c4Ports := func() []core.Instance {
		g := graph.MustCycle(4)
		var insts []core.Instance
		graph.EnumPorts(g, func(pt *graph.Ports) bool {
			insts = append(insts, core.Instance{G: g, Prt: pt, IDs: graph.SequentialIDs(4), NBound: 4})
			return true
		})
		return insts
	}
	twoEdges := graph.MustFromEdges(4, [][2]int{{0, 1}, {2, 3}})
	withDisconnected := append(decoders.DegOneFamily(3),
		core.NewAnonymousInstance(twoEdges), core.NewAnonymousInstance(twoEdges.Clone()))
	quotients := []struct {
		name     string
		d        core.Decoder
		alphabet []string
		insts    []core.Instance
	}{
		{"quotient/degree-one-n4", decoders.DegreeOne().Decoder, decoders.DegOneAlphabet(), decoders.DegOneFamily(4)},
		{"quotient/degree-one-k3-E15-slice", decoders.DegreeOneK(3).Decoder, decoders.DegOneKAlphabet(3), e15Slice()},
		{"quotient/shatter-with-ids-all-ports", decoders.Shatter().Decoder, []string{"0", "1"}, c4Ports()},
		// Shatter accepts none of these labels; a decoder that accepts
		// every view puts each (identifier, port) pattern into V(D,n).
		{"quotient/accept-all-with-ids-all-ports", core.NewDecoder(1, false, func(*view.View) bool { return true }), []string{"0", "1"}, c4Ports()},
		{"quotient/degree-one-with-disconnected", decoders.DegreeOne().Decoder, decoders.DegOneAlphabet(), withDisconnected},
	}
	for _, tc := range quotients {
		t.Run(tc.name, func(t *testing.T) {
			keys, edges, loops := referenceBuild(t, tc.d, allLabelings(tc.alphabet, tc.insts...))
			se := ShardedAllLabelings(tc.alphabet, tc.insts...)
			for _, sw := range [][2]int{{1, 1}, {4, 3}} {
				ng, err := BuildShardedCtx(context.Background(), obs.Scope{}, tc.d, se, sw[0], sw[1])
				if err != nil {
					t.Fatal(err)
				}
				compareAgainstReference(t, ng, keys, edges, loops)
			}
		})
	}
}

// shardedFromEnum adapts an enumerator factory to a ShardedEnumerator whose
// shards split the stream round-robin.
func shardedFromEnum(mk func() Enumerator) ShardedEnumerator {
	return &sharded{
		seq: mk(),
		shard: func(i, k int) Enumerator {
			return func(yield func(core.Labeled) bool) error {
				j := 0
				return mk()(func(l core.Labeled) bool {
					use := j%k == i
					j++
					if !use {
						return true
					}
					return yield(l)
				})
			}
		},
	}
}
