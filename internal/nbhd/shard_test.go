package nbhd

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"hidinglcp/internal/core"
	"hidinglcp/internal/decoders"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/graph/graphtest"
	"hidinglcp/internal/obs"
)

var shardCounts = []int{1, 2, 3, 7, 16}

// fingerprint serializes a labeled instance so that partition properties
// can compare enumeration outputs. It covers everything that
// distinguishes instances: graph structure, ports, identifiers, the bound,
// and the labels.
func fingerprint(t testing.TB, l core.Labeled) string {
	t.Helper()
	g6, err := graphtest.Graph6(l.G)
	if err != nil {
		t.Fatalf("fingerprint: %v", err)
	}
	var b strings.Builder
	b.WriteString(g6)
	b.WriteByte('|')
	for v := 0; v < l.G.N(); v++ {
		for _, w := range l.G.Neighbors(v) {
			fmt.Fprintf(&b, "%d:%d,", w, l.Prt.MustPort(v, w))
		}
		b.WriteByte(';')
	}
	fmt.Fprintf(&b, "|%v|%d|%q", l.IDs, l.NBound, l.Labels)
	return b.String()
}

// drain collects the fingerprints an enumerator produces, in order.
func drain(t testing.TB, e Enumerator) []string {
	t.Helper()
	var out []string
	if err := e(func(l core.Labeled) bool {
		out = append(out, fingerprint(t, l))
		return true
	}); err != nil {
		t.Fatalf("drain: %v", err)
	}
	return out
}

// checkShardPartition verifies the ShardedEnumerator contract: the multiset
// union of shard outputs equals the sequential enumeration with no
// duplicates and no omissions, and each shard preserves the relative
// sequential order — so the deterministic merge (by sequential rank)
// reconstructs the sequential stream exactly.
func checkShardPartition(t *testing.T, se ShardedEnumerator) {
	t.Helper()
	sequential := drain(t, se.Sequential())
	rank := make(map[string]int, len(sequential))
	for i, fp := range sequential {
		if _, dup := rank[fp]; dup {
			t.Fatalf("sequential enumeration repeats an instance: %s", fp)
		}
		rank[fp] = i
	}
	for _, k := range shardCounts {
		shards := se.Shards(k)
		if len(shards) != k && !(k <= 1 && len(shards) == 1) {
			t.Fatalf("Shards(%d) returned %d enumerators", k, len(shards))
		}
		claimed := make(map[string]int)
		total := 0
		for s, shard := range shards {
			last := -1
			for _, fp := range drain(t, shard) {
				r, ok := rank[fp]
				if !ok {
					t.Fatalf("k=%d shard %d produced an instance outside the sequential enumeration", k, s)
				}
				if r <= last {
					t.Fatalf("k=%d shard %d breaks sequential order (rank %d after %d)", k, s, r, last)
				}
				last = r
				if prev, dup := claimed[fp]; dup {
					t.Fatalf("k=%d: instance claimed by both shard %d and shard %d", k, prev, s)
				}
				claimed[fp] = s
				total++
			}
		}
		if total != len(sequential) {
			t.Fatalf("k=%d: shards produced %d instances, sequential has %d", k, total, len(sequential))
		}
	}
}

func smallInstances() []core.Instance {
	return []core.Instance{
		core.NewAnonymousInstance(graph.Path(3)),
		core.NewAnonymousInstance(graph.MustCycle(4)),
		core.NewAnonymousInstance(graph.Star(3)),
	}
}

func TestShardedEnumeratorPartition(t *testing.T) {
	evenFam, err := decoders.EvenCycleFamily(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	melonFam, err := decoders.WatermelonHidingFamily()
	if err != nil {
		t.Fatal(err)
	}
	degFam := decoders.DegOneFamily(3)
	type family struct {
		name string
		se   ShardedEnumerator
	}
	families := []family{
		{"FromLabeled/even-cycle", ShardedFromLabeled(evenFam...)},
		{"FromLabeled/watermelon", ShardedFromLabeled(melonFam...)},
		{"ProverLabeled/degree-one", ShardedProverLabeled(decoders.DegreeOne(), degFam...)},
		{"AllLabelings", ShardedAllLabelings([]string{"0", "1", "x"}, smallInstances()...)},
		{"AllPortsAllLabelings", shardedAllPortsAllLabelings([]string{"0", "1"}, smallInstances()[:2]...)},
		{"ShardEnumerator/chain", shardEnumerator(chain(
			fromLabeled(evenFam[:6]...),
			allLabelings([]string{"a", "b"}, core.NewAnonymousInstance(graph.Path(4))),
		))},
		{"ShardedChain", ShardedChain(
			ShardedFromLabeled(evenFam[:6]...),
			ShardedAllLabelings([]string{"a", "b"}, core.NewAnonymousInstance(graph.Path(4))),
		)},
	}
	// The instance-major deal splits instances into several parts only when
	// there are fewer instances than shards: cover lists shorter than,
	// equal to and longer than every entry of shardCounts.
	for _, m := range []int{0, 1, 2, 3, 4, 7, 8, 16, 17} {
		families = append(families, family{fmt.Sprintf("InstanceMajor/%d-instances", m),
			ShardedAllLabelings([]string{"0", "1"}, connectedInstances(m)...)})
	}
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) { checkShardPartition(t, f.se) })
	}
}

// connectedInstances returns m pairwise non-isomorphic instances: the
// connected graphs on 2 to 5 nodes in enumeration order, with sequential
// identifiers, so that ShardedAllLabelings keeps every one of them.
func connectedInstances(m int) []core.Instance {
	var out []core.Instance
	for n := 2; n <= 5 && len(out) < m; n++ {
		graph.EnumConnectedGraphs(n, func(g *graph.Graph) bool {
			out = append(out, core.NewInstance(g.Clone()))
			return len(out) < m
		})
	}
	return out
}

func TestShardedEnumeratorEarlyStop(t *testing.T) {
	se := ShardedAllLabelings([]string{"0", "1"}, smallInstances()...)
	for _, k := range []int{1, 3} {
		for s, shard := range se.Shards(k) {
			count := 0
			if err := shard(func(core.Labeled) bool {
				count++
				return count < 2
			}); err != nil {
				t.Fatal(err)
			}
			if count != 2 {
				t.Errorf("k=%d shard %d yielded %d after stop, want 2", k, s, count)
			}
		}
	}
}

// ngEqual reports whether two neighborhood graphs are deep-equal: same
// views in the same canonical order, identical edge structure, identical
// loop sets.
func ngEqual(a, b *NGraph) string {
	if a.Size() != b.Size() || a.EdgeCount() != b.EdgeCount() || a.LoopCount() != b.LoopCount() {
		return fmt.Sprintf("shape (%d,%d,%d) != (%d,%d,%d)",
			a.Size(), a.EdgeCount(), a.LoopCount(), b.Size(), b.EdgeCount(), b.LoopCount())
	}
	for i := 0; i < a.Size(); i++ {
		if a.ViewAt(i).Key() != b.ViewAt(i).Key() {
			return fmt.Sprintf("view %d differs", i)
		}
		if a.HasLoop(i) != b.HasLoop(i) {
			return fmt.Sprintf("loop at %d differs", i)
		}
	}
	if !a.Graph().Equal(b.Graph()) {
		return "edge structure differs"
	}
	return ""
}

// TestBuildShardedDecoderEquivalence: for every decoder in
// internal/decoders, BuildShardedCtx produces a neighborhood graph
// deep-equal to the sequential build at every shard/worker combination.
// This is the headline equivalence property of the sharded enumeration
// layer.
func TestBuildShardedDecoderEquivalence(t *testing.T) {
	shatterL1, shatterL2 := decoders.ShatterHidingPair()
	melonFam, err := decoders.WatermelonHidingFamily()
	if err != nil {
		t.Fatal(err)
	}
	evenFam, err := decoders.EvenCycleFamily(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	degInsts := smallInstances()
	cases := []struct {
		name string
		d    core.Decoder
		se   ShardedEnumerator
	}{
		{"trivial2", decoders.Trivial(2).Decoder, ShardedAllLabelings([]string{"0", "1"}, degInsts...)},
		{"trivial3", decoders.Trivial(3).Decoder, ShardedAllLabelings([]string{"0", "1", "2"}, degInsts[:2]...)},
		{"degree-one", decoders.DegreeOne().Decoder, ShardedAllLabelings(decoders.DegOneAlphabet(), decoders.DegOneFamily(3)...)},
		{"degree-one-k3", decoders.DegreeOneK(3).Decoder, ShardedAllLabelings(decoders.DegOneKAlphabet(3), degInsts...)},
		{"even-cycle", decoders.EvenCycle().Decoder, ShardedFromLabeled(evenFam...)},
		{"union", decoders.Union().Decoder, ShardedAllLabelings(decoders.DegOneAlphabet(), decoders.DegOneFamily(3)...)},
		{"shatter", decoders.Shatter().Decoder, ShardedFromLabeled(shatterL1, shatterL2)},
		{"shatter-literal", decoders.ShatterLiteral().Decoder, ShardedFromLabeled(shatterL1, shatterL2)},
		{"watermelon", decoders.Watermelon().Decoder, ShardedFromLabeled(melonFam...)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			seq, err := build(c.d, c.se.Sequential())
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 7} {
				for _, shards := range []int{0, 1, 3, 16} {
					par, err := BuildShardedCtx(context.Background(), obs.Scope{}, c.d, c.se, shards, workers)
					if err != nil {
						t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
					}
					if diff := ngEqual(seq, par); diff != "" {
						t.Fatalf("shards=%d workers=%d: %s", shards, workers, diff)
					}
				}
			}
		})
	}
}

func TestForEachShardEarlyStopAndErrors(t *testing.T) {
	insts := smallInstances()
	se := ShardedAllLabelings([]string{"0", "1"}, insts...)
	// Early stop: fn returning false halts the drive; the count stays well
	// below the full space.
	var mu sync.Mutex
	count := 0
	if err := ForEachShardCtx(context.Background(), obs.Scope{}, se, 4, 2, func(_ int, _ core.Labeled) bool {
		mu.Lock()
		defer mu.Unlock()
		count++
		return count < 3
	}); err != nil {
		t.Fatal(err)
	}
	total, err := countInstances(se, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if count >= total {
		t.Errorf("early stop processed %d of %d instances", count, total)
	}
	// The fixed-list enumerators stop too: one worker whose fn refuses the
	// first instance sees exactly one.
	p3 := core.NewAnonymousInstance(graph.Path(3))
	reveal := core.Scheme{Name: "reveal", Decoder: revealDecoder(), Prover: revealProver{}}
	for _, c := range []struct {
		name string
		se   ShardedEnumerator
	}{
		{"from-labeled", ShardedFromLabeled(core.MustNewLabeled(p3, []string{"0", "1", "0"}), core.MustNewLabeled(p3, []string{"1", "0", "1"}))},
		{"prover-labeled", ShardedProverLabeled(reveal, p3, p3)},
	} {
		seen := 0
		if err := ForEachShardCtx(context.Background(), obs.Scope{}, c.se, 1, 1, func(int, core.Labeled) bool {
			seen++
			return false
		}); err != nil || seen != 1 {
			t.Errorf("%s: early stop saw %d instances (err %v), want 1", c.name, seen, err)
		}
	}
	// Errors: an invalid instance surfaces from whichever shard owns it.
	bad := core.Labeled{Instance: core.Instance{G: graph.Path(2)}, Labels: []string{"a", "b"}}
	if err := ForEachShardCtx(context.Background(), obs.Scope{}, ShardedFromLabeled(bad), 3, 2, func(int, core.Labeled) bool { return true }); err == nil {
		t.Error("invalid instance not reported")
	}
}

// TestForEachShardErrorIndependentOfWorkers pins the error contract: for a
// fixed shard count the reported error is the lowest-numbered failing
// shard's at every worker count. Shard 1 fails at once on its first
// (port-less) instance while shard 0 fails only after 200 slow valid
// instances, so a driver that let any error stop every shard would report
// shard 1's error whenever the two shards run concurrently.
func TestForEachShardErrorIndependentOfWorkers(t *testing.T) {
	p3 := core.NewAnonymousInstance(graph.Path(3))
	valid := core.MustNewLabeled(p3, []string{"0", "1", "0"})
	bad2 := core.Labeled{Instance: core.Instance{G: graph.Path(2)}, Labels: []string{"a", "b"}}
	bad3 := core.Labeled{Instance: core.Instance{G: graph.Path(3)}, Labels: []string{"a", "b", "c"}}
	// Index-residue sharding over 2 shards: even positions form shard 0
	// (200 valid instances, then bad3), odd positions shard 1 (bad2 first).
	var insts []core.Labeled
	for j := 0; j <= 200; j++ {
		even, odd := valid, valid
		if j == 200 {
			even = bad3
		}
		if j == 0 {
			odd = bad2
		}
		insts = append(insts, even, odd)
	}
	se := ShardedFromLabeled(insts...)
	var want string
	for _, workers := range []int{1, 2, 3} {
		err := ForEachShardCtx(context.Background(), obs.Scope{}, se, 2, workers, func(int, core.Labeled) bool {
			time.Sleep(50 * time.Microsecond)
			return true
		})
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		if workers == 1 {
			want = err.Error()
			if !strings.Contains(want, fmt.Sprint(bad3.G)) {
				t.Fatalf("workers=1: error %q is not shard 0's", want)
			}
			continue
		}
		if err.Error() != want {
			t.Errorf("workers=%d: error %q, want shard 0's %q", workers, err, want)
		}
	}
}

func TestCountInstancesMatchesSequential(t *testing.T) {
	se := ShardedAllLabelings([]string{"0", "1", "2"}, smallInstances()...)
	want := len(drain(t, se.Sequential()))
	for _, k := range shardCounts {
		got, err := countInstances(se, k, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("k=%d: countInstances = %d, want %d", k, got, want)
		}
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
