package core

import (
	"errors"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"hidinglcp/internal/graph"
	"hidinglcp/internal/obs"
	"hidinglcp/internal/view"
)

// revealDecoder is the textbook 2-coloring LCP: certificates are "0"/"1" and
// a node accepts iff its own label is a color and differs from every visible
// neighbor's.
func revealDecoder() Decoder {
	return NewDecoder(1, true, func(mu *view.View) bool {
		own := mu.Labels[view.Center]
		if own != "0" && own != "1" {
			return false
		}
		for _, w := range mu.Adj[view.Center] {
			if mu.Labels[w] == own || (mu.Labels[w] != "0" && mu.Labels[w] != "1") {
				return false
			}
		}
		return true
	})
}

type revealProver struct{}

func (revealProver) Certify(inst Instance) ([]string, error) {
	color, ok := inst.G.TwoColoring()
	if !ok {
		return nil, errors.New("graph is not bipartite")
	}
	labels := make([]string, inst.G.N())
	for v, c := range color {
		labels[v] = strconv.Itoa(c)
	}
	return labels, nil
}

func revealScheme() Scheme {
	return Scheme{
		Name:     "reveal-2col",
		Decoder:  revealDecoder(),
		Prover:   revealProver{},
		Promise:  Promise{Lang: TwoCol(), InClass: (*graph.Graph).IsBipartite},
		CertBits: func(string) int { return 1 },
	}
}

func TestInstanceValidate(t *testing.T) {
	inst := NewInstance(graph.Path(4))
	if err := inst.Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
	bad := inst
	bad.IDs = graph.IDs{1, 1, 2, 3}
	if err := bad.Validate(); err == nil {
		t.Error("duplicate IDs accepted")
	}
	if err := (Instance{}).Validate(); err == nil {
		t.Error("empty instance accepted")
	}
	noPorts := Instance{G: graph.Path(2)}
	if err := noPorts.Validate(); err == nil {
		t.Error("missing ports accepted")
	}
}

func TestNewLabeled(t *testing.T) {
	inst := NewInstance(graph.Path(3))
	if _, err := NewLabeled(inst, []string{"a"}); err == nil {
		t.Error("short labeling accepted")
	}
	l, err := NewLabeled(inst, []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if l.Labels[2] != "c" {
		t.Error("labels not stored")
	}
}

func TestViewsCount(t *testing.T) {
	inst := NewInstance(graph.MustCycle(5))
	l := MustNewLabeled(inst, make([]string, 5))
	views, err := l.Views(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 5 {
		t.Fatalf("got %d views, want 5", len(views))
	}
	for _, mu := range views {
		if mu.N() != 3 {
			t.Errorf("cycle radius-1 view has %d nodes, want 3", mu.N())
		}
	}
}

func TestRunAnonymization(t *testing.T) {
	// A decoder that accepts iff it sees only zero IDs: Run must anonymize
	// for anonymous decoders and must not for non-anonymous ones.
	seeZeros := func(mu *view.View) bool { return mu.Anonymous() }
	inst := NewInstance(graph.Path(3))
	l := MustNewLabeled(inst, make([]string, 3))

	anon := NewDecoder(1, true, seeZeros)
	outs, err := Run(anon, l)
	if err != nil {
		t.Fatal(err)
	}
	for v, ok := range outs {
		if !ok {
			t.Errorf("anonymous decoder at node %d saw identifiers", v)
		}
	}

	named := NewDecoder(1, false, seeZeros)
	outs, err = Run(named, l)
	if err != nil {
		t.Fatal(err)
	}
	for v, ok := range outs {
		if ok {
			t.Errorf("non-anonymous decoder at node %d saw no identifiers", v)
		}
	}
}

func TestCheckCompleteness(t *testing.T) {
	s := revealScheme()
	for _, g := range []*graph.Graph{graph.Path(5), graph.MustCycle(6), graph.Grid(3, 3)} {
		if _, err := CheckCompleteness(s, NewInstance(g)); err != nil {
			t.Errorf("completeness on %v: %v", g, err)
		}
	}
}

func TestCheckCompletenessProverFailure(t *testing.T) {
	s := revealScheme()
	if _, err := CheckCompleteness(s, NewInstance(graph.MustCycle(5))); err == nil {
		t.Error("prover succeeded on an odd cycle")
	}
}

func TestCheckStrongSoundness(t *testing.T) {
	d := revealDecoder()
	lang := TwoCol()
	// Odd cycle with an improper labeling: the accepting set must induce a
	// bipartite subgraph.
	inst := NewInstance(graph.MustCycle(5))
	l := MustNewLabeled(inst, []string{"0", "1", "0", "1", "0"})
	if err := CheckStrongSoundness(d, lang, l); err != nil {
		t.Errorf("reveal decoder violated strong soundness: %v", err)
	}
}

func TestStrongSoundnessViolationError(t *testing.T) {
	// An always-accept decoder violates strong soundness on a triangle.
	always := NewDecoder(1, true, func(*view.View) bool { return true })
	inst := NewInstance(graph.MustCycle(3))
	l := MustNewLabeled(inst, make([]string, 3))
	err := CheckStrongSoundness(always, TwoCol(), l)
	if err == nil {
		t.Fatal("always-accept decoder passed strong soundness on a triangle")
	}
	var v *StrongSoundnessViolation
	if !errors.As(err, &v) {
		t.Fatalf("error type = %T, want *StrongSoundnessViolation", err)
	}
	if len(v.Accepting) != 3 {
		t.Errorf("violation accepting set = %v, want all 3 nodes", v.Accepting)
	}
	if v.Error() == "" {
		t.Error("empty error message")
	}
}

func TestCheckSoundness(t *testing.T) {
	d := revealDecoder()
	lang := TwoCol()
	inst := NewInstance(graph.MustCycle(3))
	l := MustNewLabeled(inst, []string{"0", "1", "0"})
	if err := CheckSoundness(d, lang, l); err != nil {
		t.Errorf("soundness check failed: %v", err)
	}
	// Yes-instances are vacuously fine even if all nodes accept.
	inst2 := NewInstance(graph.Path(2))
	l2 := MustNewLabeled(inst2, []string{"0", "1"})
	if err := CheckSoundness(d, lang, l2); err != nil {
		t.Errorf("soundness on yes-instance: %v", err)
	}
	always := NewDecoder(1, true, func(*view.View) bool { return true })
	if err := CheckSoundness(always, lang, l); err == nil {
		t.Error("always-accept decoder passed soundness on a triangle")
	}
}

func TestExhaustiveStrongSoundness(t *testing.T) {
	d := revealDecoder()
	lang := TwoCol()
	alphabet := []string{"0", "1", "x"}
	for _, g := range []*graph.Graph{graph.MustCycle(3), graph.MustCycle(5), graph.Complete(4)} {
		if err := exhaustiveSequential(nil, obs.Scope{}, d, lang, NewInstance(g), alphabet); err != nil {
			t.Errorf("exhaustive strong soundness on %v: %v", g, err)
		}
	}
	always := NewDecoder(1, true, func(*view.View) bool { return true })
	if err := exhaustiveSequential(nil, obs.Scope{}, always, lang, NewInstance(graph.MustCycle(3)), alphabet); err == nil {
		t.Error("always-accept decoder passed exhaustive check on a triangle")
	}
}

func TestFuzzStrongSoundness(t *testing.T) {
	d := revealDecoder()
	lang := TwoCol()
	rng := rand.New(rand.NewSource(42))
	gen := func(_ int, rng *rand.Rand) string {
		return []string{"0", "1", "junk"}[rng.Intn(3)]
	}
	if err := FuzzStrongSoundnessParallelCtx(nil, obs.Scope{}, d, lang, NewInstance(graph.Petersen()), 200, rng, gen, 0); err != nil {
		t.Errorf("fuzz strong soundness: %v", err)
	}
}

func TestCheckAnonymous(t *testing.T) {
	inst := NewInstance(graph.Path(3))
	l := MustNewLabeled(inst, []string{"0", "1", "0"})
	idSets := []graph.IDs{{1, 2, 3}, {3, 1, 2}, {7, 9, 8}}
	bounds := []int{3, 3, 9}
	if err := CheckAnonymous(revealDecoder(), l, idSets, bounds); err != nil {
		t.Errorf("anonymous decoder failed anonymity check: %v", err)
	}
	// A decoder keying on the center's ID parity is not anonymous.
	idDep := NewDecoder(1, false, func(mu *view.View) bool {
		return mu.IDs[view.Center]%2 == 0
	})
	if err := CheckAnonymous(idDep, l, idSets, bounds); err == nil {
		t.Error("ID-dependent decoder passed anonymity check")
	}
	if err := CheckAnonymous(revealDecoder(), l, idSets, []int{3}); err == nil {
		t.Error("mismatched lengths accepted")
	}
}

func TestCheckOrderInvariant(t *testing.T) {
	inst := NewInstance(graph.Path(3))
	l := MustNewLabeled(inst, []string{"0", "1", "0"})
	// Same order {1,2,3} vs {10,20,30}; different order {2,1,3}.
	idSets := []graph.IDs{{1, 2, 3}, {10, 20, 30}, {2, 1, 3}}
	// Order-invariant but not anonymous: accept iff center has the locally
	// smallest ID.
	ordInv := NewDecoder(1, false, func(mu *view.View) bool {
		own := mu.IDs[view.Center]
		for _, id := range mu.IDs {
			if id < own {
				return false
			}
		}
		return true
	})
	if err := CheckOrderInvariant(ordInv, l, idSets, 30); err != nil {
		t.Errorf("order-invariant decoder failed: %v", err)
	}
	// ID-value-dependent: accept iff center ID is even.
	idDep := NewDecoder(1, false, func(mu *view.View) bool {
		return mu.IDs[view.Center]%2 == 0
	})
	if err := CheckOrderInvariant(idDep, l, idSets, 30); err == nil {
		t.Error("value-dependent decoder passed order-invariance check")
	}
}

func TestLanguageKCol(t *testing.T) {
	three := KCol(3)
	if !three.Contains(graph.MustCycle(5)) {
		t.Error("C5 should be 3-colorable")
	}
	if three.Contains(graph.Complete(4)) {
		t.Error("K4 should not be 3-colorable")
	}
	if !three.ValidWitness(graph.MustCycle(3), []int{0, 1, 2}) {
		t.Error("valid witness rejected")
	}
	if three.ValidWitness(graph.MustCycle(3), []int{0, 1, 3}) {
		t.Error("out-of-palette witness accepted")
	}
	if three.ValidWitness(graph.MustCycle(3), []int{0, 1}) {
		t.Error("short witness accepted")
	}
	if three.ValidWitness(graph.Path(2), []int{1, 1}) {
		t.Error("improper witness accepted")
	}
}

func TestTwoColName(t *testing.T) {
	lang := TwoCol()
	if lang.Name != "2-col" {
		t.Errorf("name = %q, want 2-col", lang.Name)
	}
	if !lang.Contains(graph.Grid(3, 3)) || lang.Contains(graph.Petersen()) {
		t.Error("TwoCol membership wrong")
	}
}

func TestPromiseClassify(t *testing.T) {
	p := Promise{Lang: TwoCol(), InClass: func(g *graph.Graph) bool { return g.IsCycleGraph() && g.N()%2 == 0 }}
	tests := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"even cycle yes", graph.MustCycle(6), 1},
		{"odd cycle no", graph.MustCycle(5), -1},
		{"bipartite non-cycle dont-care", graph.Path(4), 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := p.Classify(tt.g); got != tt.want {
				t.Errorf("Classify = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestLabelBits(t *testing.T) {
	s := Scheme{}
	if got := s.LabelBits("ab"); got != 16 {
		t.Errorf("default LabelBits = %d, want 16", got)
	}
	s.CertBits = func(string) int { return 3 }
	if got := s.MaxLabelBits([]string{"a", "bb"}); got != 3 {
		t.Errorf("MaxLabelBits = %d, want 3", got)
	}
}

func TestWithIDsWithPorts(t *testing.T) {
	inst := NewAnonymousInstance(graph.Path(3))
	if inst.IDs != nil {
		t.Fatal("anonymous instance has IDs")
	}
	withIDs := inst.WithIDs(graph.IDs{5, 6, 7}, 10)
	if withIDs.IDs == nil || withIDs.NBound != 10 {
		t.Error("WithIDs did not apply")
	}
	if inst.IDs != nil {
		t.Error("WithIDs mutated the receiver")
	}
	pt := graph.DefaultPorts(inst.G)
	if got := inst.WithPorts(pt); got.Prt != pt {
		t.Error("WithPorts did not apply")
	}
}

// Property: for anonymous decoders, Run is invariant under identifier
// reassignment on random instances and labelings.
func TestAnonymousRunInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.ConnectedGNP(6, 0.4, rng)
		labels := make([]string, g.N())
		for v := range labels {
			labels[v] = strconv.Itoa(rng.Intn(3))
		}
		d := revealDecoder()
		base := MustNewLabeled(NewInstance(g), labels)
		outA, err := Run(d, base)
		if err != nil {
			return false
		}
		shuffled := base
		perm := rng.Perm(g.N())
		ids := make(graph.IDs, g.N())
		for v := range ids {
			ids[v] = perm[v]*7 + 3
		}
		shuffled.IDs = ids
		shuffled.NBound = base.NBound // keep the known bound fixed
		outB, err := Run(d, shuffled)
		if err != nil {
			return false
		}
		for v := range outA {
			if outA[v] != outB[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
