package experiments

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"sort"

	"hidinglcp/internal/core"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/view"
)

// E11Impossibility probes Theorems 1.2/6.3 on finite slices. A 0-bit
// (single-symbol certificate) one-round anonymous decoder is a boolean
// function on finitely many view classes, so entire decoder spaces can be
// enumerated:
//
//   - Δ = 2: the theorem's hypothesis is empty (every connected graph with
//     δ >= 2 is a cycle, and cycles are exactly the exempt class), and the
//     exhaustive enumeration indeed finds decoders that are strongly sound
//     AND hiding on even cycles — the boundary of the impossibility, where
//     Lemma 4.2 lives.
//   - Δ = 3 (theta graphs in the class, which are not cycles and have
//     δ >= 2): over a large sampled decoder space, every decoder that is
//     strongly sound on the no-instance corpus has a 2-colorable accepting
//     neighborhood slice — i.e. none is hiding, consistent with the
//     impossibility theorem.
func E11Impossibility(ctx context.Context) Table {
	t := Table{
		ID:      "E11",
		Title:   "impossibility slices (Theorems 1.2 / 6.3)",
		Columns: []string{"slice", "decoders", "strongly sound", "sound AND hiding"},
	}

	// ---- Δ = 2 slice (boundary): exhaustive. ----
	// A common identifier bound keeps structurally equal views in one class
	// across instance sizes (nodes knowing different bounds N have
	// different views by definition).
	const bound2 = 7
	yes2 := portInstances(graph.MustCycle(4), bound2)
	yes2 = append(yes2, portInstances(graph.MustCycle(6), bound2)...)
	no2 := portInstances(graph.MustCycle(3), bound2)
	no2 = append(no2, portInstances(graph.MustCycle(5), bound2)...)
	no2 = append(no2, portInstances(graph.MustCycle(7), bound2)...)

	space2, err := newDecoderSpace(append(append([]core.Instance{}, yes2...), no2...))
	if err != nil {
		t.Err = err
		return t
	}
	k := len(space2.classes)
	if k > 16 {
		t.Err = fmt.Errorf("Δ=2 class count %d too large for exhaustive enumeration", k)
		return t
	}
	sound2, hiding2 := 0, 0
	for mask := 0; mask < 1<<k; mask++ {
		if !space2.stronglySound(mask, no2) {
			continue
		}
		sound2++
		if space2.hiding(mask, yes2) {
			hiding2++
		}
	}
	t.AddRow("Δ=2 (cycles only; exempt class)", fmt.Sprintf("all 2^%d", k), sound2, hiding2)

	// ---- Δ = 3 slice: sampled. ----
	const bound3 = 12
	anon := func(g *graph.Graph) core.Instance {
		return core.Instance{G: g, Prt: graph.DefaultPorts(g), NBound: bound3}
	}
	yes3 := []core.Instance{
		anon(graph.MustWatermelon([]int{2, 2, 2})),
		anon(graph.MustWatermelon([]int{2, 4, 2})),
		anon(graph.MustWatermelon([]int{4, 4, 4})),
	}
	// Hand-picked no-instances plus the exhaustive non-bipartite connected
	// Δ<=3 universe on up to 6 nodes. Strong soundness quantifies over ALL
	// graphs; a small corpus produces false "sound" positives, so the
	// experiment reports the candidate counts under both corpora to exhibit
	// the convergence toward the theorem's impossibility.
	no3small := []core.Instance{
		anon(graph.MustCycle(3)),
		anon(graph.MustCycle(5)),
		anon(graph.MustCycle(7)),
		anon(graph.MustWatermelon([]int{2, 3})),
		anon(graph.MustWatermelon([]int{3, 4, 5})),
		anon(graph.Complete(4)),
		anon(graph.Petersen()),
	}
	// One pass over the connected Δ<=3 graphs on up to 6 nodes also
	// collects the bipartite δ>=2 yes-instances the completeness row uses.
	no3 := append([]core.Instance{}, no3small...)
	var yesCorpus []core.Instance
	for n := 3; n <= 6; n++ {
		graph.EnumConnectedGraphs(n, func(g *graph.Graph) bool {
			if g.MaxDegree() > 3 {
				return true
			}
			if !g.IsBipartite() {
				no3 = append(no3, anon(g.Clone()))
			} else if g.MinDegree() >= 2 {
				yesCorpus = append(yesCorpus, anon(g.Clone()))
			}
			return true
		})
	}
	space3, err := newDecoderSpace(append(append([]core.Instance{}, yes3...), no3...))
	if err != nil {
		t.Err = err
		return t
	}
	m := len(space3.classes)
	if m > 60 {
		t.Err = fmt.Errorf("Δ=3 class count %d exceeds the bitmask budget", m)
		return t
	}
	// A decoder violates strong soundness iff the class set of SOME odd
	// cycle of a no-instance is fully accepted; precompute those class
	// masks once and each decoder check becomes a few bit operations.
	badSmall, err := space3.oddCycleMasks(ctx, no3small)
	if err != nil {
		t.Err = err
		return t
	}
	badRest, err := space3.oddCycleMasks(ctx, no3[len(no3small):])
	if err != nil {
		t.Err = err
		return t
	}
	badFull := append(append([]uint64{}, badSmall...), badRest...)
	badFull = minimalMasks(badFull)
	badSmall = minimalMasks(badSmall)

	rng := rand.New(rand.NewSource(1234))
	const samples = 30000
	soundSmall, hidingSmall := 0, 0
	soundFull, hidingFull := 0, 0
	seen := make(map[int]bool, samples)
	for i := 0; i < samples; i++ {
		bits := m
		if bits > 30 {
			bits = 30
		}
		mask := rng.Intn(1 << uint(bits))
		if seen[mask] {
			continue
		}
		seen[mask] = true
		if violates(uint64(mask), badSmall) {
			continue
		}
		soundSmall++
		isHiding := space3.hiding(mask, yes3)
		if isHiding {
			hidingSmall++
		}
		if violates(uint64(mask), badFull) {
			continue
		}
		soundFull++
		if isHiding {
			hidingFull++
		}
	}
	t.AddRow(fmt.Sprintf("Δ=3 thetas, 7-instance no-corpus (%d classes)", m),
		fmt.Sprintf("%d sampled", len(seen)), soundSmall, hidingSmall)
	t.AddRow(fmt.Sprintf("Δ=3 thetas, + exhaustive non-bipartite Δ<=3 corpus n<=6 (%d instances)", len(no3)),
		fmt.Sprintf("%d sampled", len(seen)), soundFull, hidingFull)

	// With COMPLETENESS over the bipartite Δ<=3 universe, a 0-bit decoder
	// must accept every class occurring in a yes-instance; if those classes
	// already cover some odd cycle of a no-instance, no complete and
	// strongly sound 0-bit decoder exists at all.
	var yesMask uint64
	for _, inst := range yesCorpus {
		vec, err := space3.classVector(inst)
		if err != nil {
			t.Err = err
			return t
		}
		for _, c := range vec {
			if c >= 64 {
				t.Err = fmt.Errorf("class index %d exceeds bitmask budget", c)
				return t
			}
			yesMask |= 1 << uint(c)
		}
	}
	completeAndSound := 1
	if violates(yesMask, badFull) {
		completeAndSound = 0
	}
	t.AddRow(fmt.Sprintf("Δ=3, completeness forced over %d bipartite δ>=2 yes-instances", len(yesCorpus)),
		"the unique minimal complete decoder", completeAndSound, 0)
	t.Notes = "Paper (Theorem 6.3): with constant-size certificates, hiding excludes strong " +
		"soundness outside the exempt classes. Measured: on the Δ=2 boundary — where every " +
		"δ>=2 graph is a cycle and the theorem does not apply — strongly sound AND hiding " +
		"decoders exist (0-bit port-pattern decoders already exhibit odd view-cycles there). " +
		"On the Δ=3 theta slice (which contains the 1-forgetful, non-cycle, δ>=2 graph " +
		"θ(4,4,4), so the theorem applies), the sound-AND-hiding candidate count collapses as " +
		"the no-instance corpus grows toward the theorem's universal quantification. Requiring " +
		"COMPLETENESS as well settles it: the classes forced by bipartite yes-instances already " +
		"cover an odd cycle of some no-instance, so no complete and strongly sound 0-bit " +
		"decoder exists — with or without hiding — which is why the paper's schemes need " +
		"non-trivial certificates in the first place."
	return t
}

// portInstances lists g under every port assignment, anonymously.
func portInstances(g *graph.Graph, nBound int) []core.Instance {
	var out []core.Instance
	graph.EnumPorts(g, func(pt *graph.Ports) bool {
		out = append(out, core.Instance{G: g, Prt: pt, NBound: nBound})
		return true
	})
	return out
}

// decoderSpace indexes the anonymous single-label view classes of a corpus
// so that 0-bit decoders become bitmasks over classes.
type decoderSpace struct {
	// classes lists the class keys (canonical view keys), sorted by key
	// bytes once the corpus is indexed; index maps a key to its position.
	// The sorted order fixes the decoder-mask bit order, so the table's
	// sampled rows follow the key order: a key that orders view nodes
	// differently draws different masks from the same seed.
	classes []string
	index   map[string]int
	// vecs caches the class of every node of each corpus instance, keyed by
	// the instance's *graph.Ports pointer.
	vecs map[*graph.Ports][]int
	// bip caches, per port assignment, the bipartiteness of the subgraph
	// induced by each accepting node bitmask (corpus instances have at
	// most 64 nodes; the verdict depends only on the accepting set).
	bip map[*graph.Ports]map[uint64]bool
	// adjCache holds, per yes corpus (keyed by its first instance), the
	// class-level adjacency and loop masks hiding() walks. The class count
	// is bounded by the bitmask budget (<= 60), so adjacency fits fixed
	// [64]uint64 rows and each hiding() call runs an allocation-free
	// mask-BFS instead of building a graph.Graph per decoder sample.
	adjCache map[*core.Instance]*classAdj

	// Scratch for classVector, which runs on one goroutine: the template
	// extractor, the view refilled per node, its key buffer, and the
	// all-empty labeling.
	ex      view.Extractor
	scratch view.View
	key     []byte
	labels  []string
}

// classAdj is the class-level slice of a yes corpus: adj[c] is the bitmask
// of classes sharing an edge with class c in some corpus instance, loops the
// classes adjacent to themselves.
type classAdj struct {
	adj   [64]uint64
	loops uint64
}

func newDecoderSpace(corpus []core.Instance) (*decoderSpace, error) {
	s := &decoderSpace{
		index:    map[string]int{},
		vecs:     map[*graph.Ports][]int{},
		bip:      map[*graph.Ports]map[uint64]bool{},
		adjCache: map[*core.Instance]*classAdj{},
	}
	// Single pass: number each instance's nodes by class in first-seen
	// order, sort the class universe, then renumber the cached vectors by
	// sorted rank — no second extraction sweep over the corpus.
	vecs := make([][]int, len(corpus))
	for ci, inst := range corpus {
		vec, err := s.classVector(inst)
		if err != nil {
			return nil, err
		}
		vecs[ci] = vec
	}
	rank := make([]int, len(s.classes))
	sort.Strings(s.classes)
	for i, c := range s.classes {
		rank[s.index[c]] = i
		s.index[c] = i
	}
	for ci, inst := range corpus {
		for v, id := range vecs[ci] {
			vecs[ci][v] = rank[id]
		}
		s.vecs[inst.Prt] = vecs[ci]
	}
	return s, nil
}

// classVector returns the class of every node of inst, numbering a class
// not yet indexed as len(classes). A class is the canonical key of the
// node's anonymous, all-empty-label radius-1 view: the view is refilled from
// an identifier-free template into one scratch view and keyed into one
// reused buffer, so only a new class copies its key.
func (s *decoderSpace) classVector(inst core.Instance) ([]int, error) {
	n := inst.G.N()
	if cap(s.labels) < n {
		s.labels = make([]string, n)
	}
	labels := s.labels[:n]
	vec := make([]int, n)
	for v := range vec {
		t, err := s.ex.Template(inst.G, inst.Prt, nil, inst.NBound, v, 1)
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", v, err)
		}
		s.key = t.InstantiateInto(&s.scratch, labels).AppendBinKey(s.key[:0])
		id, ok := s.index[string(s.key)]
		if !ok {
			id = len(s.classes)
			key := string(s.key)
			s.index[key] = id
			s.classes = append(s.classes, key)
		}
		vec[v] = id
	}
	return vec, nil
}

// stronglySound reports whether the decoder given by mask keeps the
// accepting-induced subgraph bipartite on every corpus instance.
func (s *decoderSpace) stronglySound(mask int, corpus []core.Instance) bool {
	for _, inst := range corpus {
		vec := s.vecs[inst.Prt]
		if len(vec) > 64 {
			// No bitmask memo; compute directly.
			var acc []int
			for v, c := range vec {
				if mask&(1<<uint(c)) != 0 {
					acc = append(acc, v)
				}
			}
			sub, _ := inst.G.InducedSubgraph(acc)
			if !sub.IsBipartite() {
				return false
			}
			continue
		}
		// Many decoder masks induce the same accepting node set on one
		// instance; memoize the bipartiteness verdict per that set.
		var am uint64
		for v, c := range vec {
			if mask&(1<<uint(c)) != 0 {
				am |= 1 << uint(v)
			}
		}
		m := s.bip[inst.Prt]
		if m == nil {
			m = make(map[uint64]bool)
			s.bip[inst.Prt] = m
		}
		ok, hit := m[am]
		if !hit {
			acc := make([]int, 0, len(vec))
			for v := range vec {
				if am&(1<<uint(v)) != 0 {
					acc = append(acc, v)
				}
			}
			sub, _ := inst.G.InducedSubgraph(acc)
			ok = sub.IsBipartite()
			m[am] = ok
		}
		if !ok {
			return false
		}
	}
	return true
}

// oddCycleMasks enumerates the simple odd cycles of every corpus instance
// and returns their class bitmasks: a decoder accepting all classes of some
// mask accepts an odd cycle somewhere and thus violates strong soundness.
// The per-instance cycle searches are independent and run on the configured
// worker pool; the merged mask set is sorted, so the result does not depend
// on scheduling.
func (s *decoderSpace) oddCycleMasks(ctx context.Context, corpus []core.Instance) ([]uint64, error) {
	perInst := make([][]uint64, len(corpus))
	if err := parallelEach(ctx, len(corpus), func(i int) {
		perInst[i] = s.instanceOddCycleMasks(corpus[i])
	}); err != nil {
		return nil, err
	}
	set := make(map[uint64]bool)
	for _, masks := range perInst {
		for _, mask := range masks {
			set[mask] = true
		}
	}
	out := make([]uint64, 0, len(set))
	for mask := range set {
		out = append(out, mask)
	}
	// Deterministic order: the masks feed the minimality filter and the
	// reported counts, which must not vary with map iteration order.
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// instanceOddCycleMasks runs the anchored odd-cycle DFS on one instance.
// It only reads the (frozen after construction) class-vector cache, so
// concurrent calls on distinct instances are safe.
func (s *decoderSpace) instanceOddCycleMasks(inst core.Instance) []uint64 {
	set := make(map[uint64]bool)
	vec := s.vecs[inst.Prt]
	g := inst.G
	n := g.N()
	inPath := make([]bool, n)
	var path []int
	var dfs func(start, cur int)
	dfs = func(start, cur int) {
		for _, nb := range g.Neighbors(cur) {
			if nb == start && len(path) >= 3 && len(path)%2 == 1 {
				var mask uint64
				for _, v := range path {
					mask |= 1 << uint(vec[v])
				}
				set[mask] = true
				continue
			}
			// Anchor cycles at their minimum node to bound the search.
			if nb <= start || inPath[nb] {
				continue
			}
			inPath[nb] = true
			path = append(path, nb)
			dfs(start, nb)
			path = path[:len(path)-1]
			inPath[nb] = false
		}
	}
	for start := 0; start < n; start++ {
		path = path[:0]
		path = append(path, start)
		inPath[start] = true
		dfs(start, start)
		inPath[start] = false
	}
	out := make([]uint64, 0, len(set))
	for mask := range set {
		out = append(out, mask)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// minimalMasks drops masks that are supersets of another mask (checking the
// subset suffices).
func minimalMasks(masks []uint64) []uint64 {
	var out []uint64
	for i, a := range masks {
		minimal := true
		for j, b := range masks {
			if i == j {
				continue
			}
			if b&a == b && (b != a || j < i) {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, a)
		}
	}
	return out
}

// violates reports whether some bad mask is fully accepted.
func violates(mask uint64, bad []uint64) bool {
	for _, b := range bad {
		if b&mask == b {
			return true
		}
	}
	return false
}

// hiding reports whether the class-level accepting neighborhood slice over
// the yes corpus contains an odd cycle (including a self-loop). The corpus
// adjacency is precomputed once (yesAdj); per decoder mask the check is a
// loop-bit test plus an allocation-free bitmask BFS 2-coloring.
func (s *decoderSpace) hiding(mask int, yes []core.Instance) bool {
	ca := s.yesAdj(yes)
	acc := uint64(mask)
	if ca.loops&acc != 0 {
		return true
	}
	var nadj [64]uint64
	for f := acc; f != 0; f &= f - 1 {
		c := bits.TrailingZeros64(f)
		nadj[c] = ca.adj[c] & acc
	}
	return !maskBipartite(acc, &nadj)
}

// yesAdj returns the class-level adjacency of the yes corpus, computed on
// first use and cached (hiding is probed once per sampled decoder mask over
// a fixed corpus). Corpora are identified by their first instance; each
// decoderSpace only ever sees one.
func (s *decoderSpace) yesAdj(yes []core.Instance) *classAdj {
	if ca, ok := s.adjCache[&yes[0]]; ok {
		return ca
	}
	ca := &classAdj{}
	for _, inst := range yes {
		vec := s.vecs[inst.Prt]
		for _, e := range inst.G.Edges() {
			a, b := vec[e[0]], vec[e[1]]
			if a == b {
				ca.loops |= 1 << uint(a)
				continue
			}
			ca.adj[a] |= 1 << uint(b)
			ca.adj[b] |= 1 << uint(a)
		}
	}
	s.adjCache[&yes[0]] = ca
	return ca
}

// maskBipartite 2-colors the graph on the node bitmask whose rows are adj
// (restricted to the mask) by frontier-mask BFS: a layer's neighbor set
// intersecting the layer's own side is an odd cycle. Edges only join
// consecutive BFS layers, so the parity-side test is exact.
func maskBipartite(nodes uint64, adj *[64]uint64) bool {
	visited := uint64(0)
	for {
		rest := nodes &^ visited
		if rest == 0 {
			return true
		}
		var side [2]uint64
		cur := rest & -rest
		si := 0
		for cur != 0 {
			side[si] |= cur
			visited |= cur
			var nxt uint64
			for f := cur; f != 0; f &= f - 1 {
				nxt |= adj[bits.TrailingZeros64(f)]
			}
			if nxt&side[si] != 0 {
				return false
			}
			cur = nxt &^ visited
			si ^= 1
		}
	}
}
