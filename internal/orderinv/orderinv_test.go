package orderinv

import (
	"strings"
	"testing"

	"hidinglcp/internal/core"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/view"
)

func TestVerifyRamsey33(t *testing.T) {
	if err := VerifyRamsey33(); err != nil {
		t.Fatal(err)
	}
}

func TestMonochromaticSubsetParity(t *testing.T) {
	// Color pairs by sum parity: the evens (or odds) form a monochromatic
	// set.
	universe := []int{1, 2, 3, 4, 5, 6, 7, 8}
	y, c := MonochromaticSubset(universe, 2, 3, func(sub []int) string {
		if (sub[0]+sub[1])%2 == 0 {
			return "even"
		}
		return "odd"
	})
	if y == nil {
		t.Fatal("no monochromatic subset found")
	}
	if c != "even" {
		t.Errorf("color = %q, want even (same-parity triple)", c)
	}
	parity := y[0] % 2
	for _, x := range y {
		if x%2 != parity {
			t.Errorf("subset %v mixes parities", y)
		}
	}
}

func TestMonochromaticSubsetNone(t *testing.T) {
	// An injective coloring of singletons admits no monochromatic pair.
	y, _ := MonochromaticSubset([]int{1, 2, 3}, 1, 2, func(sub []int) string {
		return map[int]string{1: "a", 2: "b", 3: "c"}[sub[0]]
	})
	if y != nil {
		t.Errorf("found %v, want none", y)
	}
}

// parityDecoder accepts iff the center identifier is even — the simplest
// identifier-VALUE-dependent (hence non-order-invariant) decoder.
func parityDecoder() core.Decoder {
	return core.NewDecoder(1, false, func(mu *view.View) bool {
		return mu.IDs[view.Center]%2 == 0
	})
}

// TestTemplateInstantiate checks how TypeOf instantiates the catalog: each
// entry's decoder call sees a non-empty center view whose center carries
// the identifier of its rank, N is raised to the largest identifier, and
// a set shorter than an entry's slot count is refused.
func TestTemplateInstantiate(t *testing.T) {
	catalog, err := PathTemplates(3, []string{"", "", ""}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 3 centers x 3! permutations.
	if len(catalog) != 18 {
		t.Fatalf("catalog size = %d, want 18", len(catalog))
	}
	ids := []int{30, 10, 20}
	calls := 0
	d := core.NewDecoder(1, false, func(mu *view.View) bool {
		tpl := catalog[calls]
		calls++
		if mu.N() == 0 {
			t.Errorf("entry %d: empty view", calls-1)
			return false
		}
		if want := tpl.RankOf[tpl.Center] * 10; mu.IDs[view.Center] != want || mu.NBound != 30 {
			t.Errorf("entry %d: center id %d and N %d, want %d and 30", calls-1, mu.IDs[view.Center], mu.NBound, want)
		}
		return true
	})
	typ, err := TypeOf(d, catalog, ids)
	if err != nil {
		t.Fatal(err)
	}
	if calls != len(catalog) || typ != strings.Repeat("1", len(catalog)) {
		t.Errorf("type %q after %d decoder calls, want all accepts over %d entries", typ, calls, len(catalog))
	}
	if _, err := TypeOf(d, catalog, []int{10}); err == nil {
		t.Error("short identifier set accepted")
	}
}

func TestTypeOfDistinguishesParity(t *testing.T) {
	catalog, err := PathTemplates(3, []string{"", "", ""}, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := parityDecoder()
	tEven, err := TypeOf(d, catalog, []int{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	tMixed, err := TypeOf(d, catalog, []int{2, 3, 6})
	if err != nil {
		t.Fatal(err)
	}
	if tEven == tMixed {
		t.Error("parity decoder's types should differ between all-even and mixed sets")
	}
}

// TestLemma62Reduction runs the full Lemma 6.2 pipeline on the parity
// decoder: find a monochromatic identifier set, build the order-invariant
// D', and verify (i) D' is order-invariant, (ii) D' agrees with D on
// instances whose identifiers come from the monochromatic set.
func TestLemma62Reduction(t *testing.T) {
	catalog, err := PathTemplates(3, []string{"", "", ""}, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := parityDecoder()
	universe := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	mono, typ, err := MonochromaticIDs(d, catalog, universe, 5)
	if err != nil {
		t.Fatal(err)
	}
	if typ == "" {
		t.Fatal("empty type")
	}
	// The parity decoder's monochromatic sets are single-parity sets.
	parity := mono[0] % 2
	for _, x := range mono {
		if x%2 != parity {
			t.Errorf("monochromatic set %v mixes parities", mono)
		}
	}

	dPrime := OrderInvariantify(d, mono)

	// (i) Order invariance on a path with shuffled identifier assignments.
	inst := core.NewInstance(graph.Path(3))
	l := core.MustNewLabeled(inst, []string{"", "", ""})
	idSets := []graph.IDs{
		{1, 2, 3}, {10, 20, 30}, {5, 7, 11}, // same order
		{2, 1, 3}, {30, 10, 20}, // other orders
	}
	if err := core.CheckOrderInvariant(dPrime, l, idSets, 40); err != nil {
		t.Errorf("D' not order-invariant: %v", err)
	}
	// The original decoder is NOT order-invariant — the reduction did real
	// work.
	if err := core.CheckOrderInvariant(d, l, idSets, 40); err == nil {
		t.Error("parity decoder unexpectedly order-invariant")
	}

	// (ii) Agreement with D on monochromatic-identifier instances.
	monoIDs := graph.IDs{mono[0], mono[1], mono[2]}
	agree := l
	agree.IDs = monoIDs
	agree.NBound = mono[len(mono)-1]
	outD, err := core.Run(d, agree)
	if err != nil {
		t.Fatal(err)
	}
	outP, err := core.Run(dPrime, agree)
	if err != nil {
		t.Fatal(err)
	}
	for v := range outD {
		if outD[v] != outP[v] {
			t.Errorf("node %d: D = %v, D' = %v on monochromatic instance", v, outD[v], outP[v])
		}
	}
}

func TestOrderInvariantifyTooManyIDs(t *testing.T) {
	d := parityDecoder()
	dPrime := OrderInvariantify(d, []int{2, 4})
	inst := core.NewInstance(graph.Path(3)) // 3 distinct ids > |monoSet| = 2
	l := core.MustNewLabeled(inst, []string{"", "", ""})
	outs, err := core.Run(dPrime, l)
	if err != nil {
		t.Fatal(err)
	}
	for v, ok := range outs {
		if ok && l.G.Degree(v) == 2 {
			t.Errorf("node %d accepted though its view exceeds the monochromatic set", v)
		}
	}
}

func TestMonochromaticIDsErrors(t *testing.T) {
	catalog, err := PathTemplates(3, []string{"", "", ""}, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := parityDecoder()
	if _, _, err := MonochromaticIDs(d, catalog, []int{1, 2, 3, 4}, 2); err == nil {
		t.Error("target smaller than slot count accepted")
	}
	// A decoder distinguishing every identifier value defeats a tiny
	// universe.
	needle := core.NewDecoder(1, false, func(mu *view.View) bool {
		return mu.IDs[view.Center] == 3
	})
	if _, _, err := MonochromaticIDs(needle, catalog, []int{1, 2, 3, 4}, 4); err == nil {
		t.Error("expected failure on a needle decoder over a tiny universe")
	}
}

// TestRemapViewIDsCopiesAnonymousView: remapping an anonymous view raises
// N on a copy, never on the caller's view, which may be shared or a
// scratch the caller refills.
func TestRemapViewIDsCopiesAnonymousView(t *testing.T) {
	g := graph.Path(3)
	mu := view.MustExtract(g, graph.DefaultPorts(g), nil, []string{"", "", ""}, 3, 1, 1)
	out, ok := RemapViewIDs(mu, []int{10, 20, 30})
	if !ok {
		t.Fatal("remap of an anonymous view refused")
	}
	if out == mu || mu.NBound != 3 || out.NBound != 30 {
		t.Errorf("remap returned the input (%v) or left N at %d on the input and %d on the copy, want 3 and 30", out == mu, mu.NBound, out.NBound)
	}
}
