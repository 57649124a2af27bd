package sanitize_test

import (
	"strings"
	"testing"

	"hidinglcp/internal/cli"
	"hidinglcp/internal/core"
	"hidinglcp/internal/decoders"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/obs"
	"hidinglcp/internal/orderinv"
	"hidinglcp/internal/sanitize"
	"hidinglcp/internal/view"
)

// candidateGraphs is the pool every scheme picks its in-promise instances
// from; together they cover paths, cycles, stars, trees, grids, and the
// watermelon family.
func candidateGraphs(t *testing.T) []*graph.Graph {
	t.Helper()
	var gs []*graph.Graph
	for _, spec := range []string{
		"path:2", "path:4", "path:7", "path:8",
		"cycle:4", "cycle:5", "cycle:6", "cycle:8",
		"star:4", "binarytree:3", "grid:3x3",
		"spider:2,2,2", "watermelon:2,4,2", "complete:4",
	} {
		g, err := cli.ParseGraph(spec)
		if err != nil {
			t.Fatalf("parsing %q: %v", spec, err)
		}
		gs = append(gs, g)
	}
	return gs
}

// TestEveryDecoderSatisfiesContract wraps every scheme in the repository
// in the sanitizer and certifies a slice of in-promise instances: a pure
// decoder sails through; any statefulness, view mutation, extraction-order
// dependence, or identifier peeking fails the run. This is the acceptance
// check "sanitizer wrapper passes for every decoder in internal/decoders".
func TestEveryDecoderSatisfiesContract(t *testing.T) {
	pool := candidateGraphs(t)
	for _, e := range decoders.Schemes() {
		name := e.Name
		t.Run(name, func(t *testing.T) {
			s := e.New()
			var insts []core.Instance
			for _, g := range pool {
				if s.Promise.InClass != nil && !s.Promise.InClass(g) {
					continue
				}
				if s.Decoder.Anonymous() {
					insts = append(insts, core.NewAnonymousInstance(g))
				} else {
					insts = append(insts, core.NewInstance(g))
				}
			}
			if len(insts) == 0 {
				t.Fatalf("no candidate graph lies in the promise class of %s", name)
			}
			if err := sanitize.CheckScheme(s, insts, sanitize.Config{}); err != nil {
				t.Errorf("scheme %s: %v", name, err)
			}
		})
	}
}

// TestAdversarialLabelingsStayClean runs the sanitizer over adversarial
// (not prover-produced) labelings: the contract must hold on rejecting
// views too, since strong-soundness checks evaluate exactly those.
func TestAdversarialLabelingsStayClean(t *testing.T) {
	s := decoders.DegreeOne()
	g, err := cli.ParseGraph("path:4")
	if err != nil {
		t.Fatal(err)
	}
	inst := core.NewAnonymousInstance(g)
	alphabet := decoders.DegOneAlphabet()
	var labeled []core.Labeled
	graph.EnumLabelings(g.N(), len(alphabet), func(idx []int) bool {
		labels := make([]string, g.N())
		for v, a := range idx {
			labels[v] = alphabet[a]
		}
		labeled = append(labeled, core.MustNewLabeled(inst, labels))
		return true
	})
	res, err := sanitize.CheckLabeled(s.Decoder, labeled, sanitize.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Error(err)
	}
	if res.Decisions() == 0 {
		t.Error("sanitizer probed no decisions")
	}
}

// statefulDecoder flips its answer on every call — the archetypal
// violation of repeat determinism.
type statefulDecoder struct{ calls int }

func (d *statefulDecoder) Rounds() int     { return 1 }
func (d *statefulDecoder) Anonymous() bool { return true }
func (d *statefulDecoder) Decide(mu *view.View) bool {
	d.calls++
	return d.calls%2 == 0
}

// mutatingDecoder scribbles on its view argument.
type mutatingDecoder struct{}

func (d *mutatingDecoder) Rounds() int     { return 1 }
func (d *mutatingDecoder) Anonymous() bool { return true }
func (d *mutatingDecoder) Decide(mu *view.View) bool {
	mu.Labels[0] = "scribbled"
	return true
}

// orderDependentDecoder reads the label of local node 1 — which node that
// is depends on the arbitrary host numbering, so relabeling probes must
// catch it.
type orderDependentDecoder struct{}

func (d *orderDependentDecoder) Rounds() int     { return 1 }
func (d *orderDependentDecoder) Anonymous() bool { return true }
func (d *orderDependentDecoder) Decide(mu *view.View) bool {
	if mu.N() < 2 {
		return true
	}
	return mu.Labels[1] == "a"
}

// idPeekingDecoder claims anonymity but branches on identifiers.
type idPeekingDecoder struct{}

func (d *idPeekingDecoder) Rounds() int     { return 1 }
func (d *idPeekingDecoder) Anonymous() bool { return true }
func (d *idPeekingDecoder) Decide(mu *view.View) bool {
	return mu.IDs[0] > 0
}

// obsReadingDecoder branches on a live metric it also bumps — the exact
// feedback loop the instrumentation probe (and, statically, the obspurity
// analyzer) forbids: its verdict depends on how often the pipeline ran.
type obsReadingDecoder struct{ hits *obs.Counter }

func (d *obsReadingDecoder) Rounds() int     { return 1 }
func (d *obsReadingDecoder) Anonymous() bool { return true }
func (d *obsReadingDecoder) Decide(mu *view.View) bool {
	d.hits.Inc()
	return d.hits.Value()%2 == 0
}

// idParityDecoder is honestly non-anonymous but not order-invariant: it
// branches on identifier parity, which order-preserving remaps change.
type idParityDecoder struct{}

func (d *idParityDecoder) Rounds() int     { return 1 }
func (d *idParityDecoder) Anonymous() bool { return false }
func (d *idParityDecoder) Decide(mu *view.View) bool {
	return mu.IDs[0]%2 == 0
}

// probeView extracts the radius-1 view of the center of a 3-path with
// distinct leaf labels and identifiers 1..3.
func probeView(t *testing.T, ids graph.IDs) *view.View {
	t.Helper()
	g := graph.Path(3)
	labels := []string{"a", "x", "b"}
	mu, err := view.Extract(g, graph.DefaultPorts(g), ids, labels, 9, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return mu
}

// runCollecting wraps d, feeds it mu, and returns the violations.
func runCollecting(t *testing.T, d core.Decoder, mu *view.View, cfg sanitize.Config) []*sanitize.Violation {
	t.Helper()
	var got []*sanitize.Violation
	cfg.Report = func(v *sanitize.Violation) { got = append(got, v) }
	san := sanitize.Wrap(d, cfg)
	san.Decide(mu)
	return got
}

func requireCheck(t *testing.T, violations []*sanitize.Violation, check string) {
	t.Helper()
	for _, v := range violations {
		if v.Check == check {
			return
		}
	}
	t.Errorf("expected a %q violation, got %v", check, violations)
}

func TestCatchesStatefulness(t *testing.T) {
	vs := runCollecting(t, &statefulDecoder{}, probeView(t, nil), sanitize.Config{})
	requireCheck(t, vs, "repeat")
}

func TestCatchesViewMutation(t *testing.T) {
	vs := runCollecting(t, &mutatingDecoder{}, probeView(t, nil), sanitize.Config{})
	requireCheck(t, vs, "mutation")
}

func TestCatchesExtractionOrderDependence(t *testing.T) {
	// The two leaves sit in the same distance class with labels "a" and
	// "b", so some relabeling probe swaps them and flips the output.
	vs := runCollecting(t, &orderDependentDecoder{}, probeView(t, nil), sanitize.Config{Relabelings: 8})
	requireCheck(t, vs, "relabeling")
}

func TestCatchesInstrumentationDivergence(t *testing.T) {
	d := &obsReadingDecoder{hits: obs.NewScope().Counter("test.hits")}
	vs := runCollecting(t, d, probeView(t, nil), sanitize.Config{})
	requireCheck(t, vs, "instrumentation")
}

func TestCatchesAnonymityViolation(t *testing.T) {
	vs := runCollecting(t, &idPeekingDecoder{}, probeView(t, graph.IDs{1, 2, 3}), sanitize.Config{})
	requireCheck(t, vs, "anonymity")
}

func TestCatchesOrderInvarianceViolation(t *testing.T) {
	mu := probeView(t, graph.IDs{1, 2, 3})
	// Center is local node 0 of the view; its identifier is 2 (even). The
	// remap targets shift every identifier, flipping the parity read.
	vs := runCollecting(t, &idParityDecoder{}, mu, sanitize.Config{OrderInvariant: true})
	requireCheck(t, vs, "order-invariance")
}

func TestOrderInvariantifiedDecoderPassesOrderProbe(t *testing.T) {
	d := orderinv.OrderInvariantify(decoders.Shatter().Decoder, []int{10, 20, 30, 40, 50, 60, 70, 80})
	mu := probeView(t, graph.IDs{1, 2, 3})
	vs := runCollecting(t, d, mu, sanitize.Config{OrderInvariant: true})
	if len(vs) != 0 {
		t.Errorf("order-invariantified decoder reported violations: %v", vs)
	}
}

func TestPanicsByDefault(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic on violation with nil Report")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "determinism violation") {
			t.Fatalf("unexpected panic payload %v", r)
		}
	}()
	san := sanitize.Wrap(&statefulDecoder{}, sanitize.Config{})
	san.Decide(probeView(t, nil))
}

// TestCleanDecoderForwardsTransparently checks output equivalence of the
// wrapper on a real scheme.
func TestCleanDecoderForwardsTransparently(t *testing.T) {
	s := decoders.EvenCycle()
	g := graph.MustCycle(6)
	inst := core.NewAnonymousInstance(g)
	labels, err := s.Prover.Certify(inst)
	if err != nil {
		t.Fatal(err)
	}
	l := core.MustNewLabeled(inst, labels)
	plain, err := core.Run(s.Decoder, l)
	if err != nil {
		t.Fatal(err)
	}
	san := sanitize.Wrap(s.Decoder, sanitize.Config{})
	wrapped, err := core.Run(san, l)
	if err != nil {
		t.Fatal(err)
	}
	for v := range plain {
		if plain[v] != wrapped[v] {
			t.Errorf("node %d: wrapper output %v differs from plain %v", v, wrapped[v], plain[v])
		}
	}
	if san.Decisions() != g.N() {
		t.Errorf("sanitizer probed %d decisions, want %d", san.Decisions(), g.N())
	}
	if got := san.InstrumentationProbes(); got != int64(g.N()) {
		t.Errorf("instrumentation probe ran %d times, want once per decision (%d)", got, g.N())
	}
}

// fixedProver certifies every instance with one fixed labeling.
type fixedProver []string

func (p fixedProver) Certify(core.Instance) ([]string, error) { return p, nil }

// TestViolationViewOutlivesRun: core.Run hands the decoder one scratch view
// that it refills for the next node, so a violation recorded through Report
// must hold its own copy. After CheckCompleteness returns, each node's
// mutation violation still carries that node's view as extracted.
func TestViolationViewOutlivesRun(t *testing.T) {
	g := graph.Path(5)
	inst := core.NewAnonymousInstance(g)
	labels := []string{"a", "b", "c", "d", "e"}
	var got []*sanitize.Violation
	san := sanitize.Wrap(&mutatingDecoder{}, sanitize.Config{
		Report: func(v *sanitize.Violation) { got = append(got, v) },
	})
	s := core.Scheme{Name: "mutating", Decoder: san, Prover: fixedProver(labels)}
	if _, err := core.CheckCompleteness(s, inst); err != nil {
		t.Fatal(err)
	}
	var node int
	for _, v := range got {
		if v.Check != "mutation" {
			continue
		}
		want := view.MustExtract(g, inst.Prt, nil, labels, inst.NBound, node, 1)
		if v.View.KeyDigest() != want.KeyDigest() {
			t.Errorf("node %d: violation view %s, want the node's view %s", node, v.View.KeyDigest(), want.KeyDigest())
		}
		node++
	}
	if node != g.N() {
		t.Fatalf("%d mutation violations, want one per node (%d)", node, g.N())
	}
}
