package sim

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"hidinglcp/internal/core"
	"hidinglcp/internal/decoders"
	"hidinglcp/internal/faults"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/graph/graphtest"
	"hidinglcp/internal/obs"
	"hidinglcp/internal/view"
)

// chaoticPlan is the kitchen-sink plan the determinism tests replay: every
// fault kind at once.
func chaoticPlan(seed int64) faults.Plan {
	return faults.Plan{
		Seed:         seed,
		Drop:         0.25,
		Duplicate:    0.2,
		Delay:        0.3,
		MaxDelay:     2,
		Reorder:      true,
		Crashes:      map[int]int{1: 1, 4: 0},
		CorruptNodes: []int{2},
	}
}

// viewKeys flattens a view slice into comparable keys ("" at crashed
// nodes).
func viewKeys(views []*view.View) []string {
	keys := make([]string, len(views))
	for i, mu := range views {
		if mu != nil {
			keys[i] = mu.Key()
		}
	}
	return keys
}

// TestGatherFaultsZeroPlanMatchesExtract pins the determinism contract's
// base case: the zero-value plan reproduces the fault-free views exactly.
func TestGatherFaultsZeroPlanMatchesExtract(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		g := graphtest.ConnectedGNP(3+rng.Intn(7), 0.4, rng)
		l := labeled(g, randomLabels(g.N(), rng))
		r := rng.Intn(3)
		got, stats, rep, err := Gather(nil, obs.Scope{}, l, r, faults.Plan{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Dropped+rep.Duplicated+rep.Delayed+rep.Expired+rep.Timeouts != 0 ||
			len(rep.Crashed)+len(rep.Corrupted) != 0 {
			t.Fatalf("zero plan injected faults: %s", rep.Summary())
		}
		if wantMsgs := r * 2 * g.M(); stats.Messages != wantMsgs {
			t.Fatalf("zero plan sent %d messages, want %d", stats.Messages, wantMsgs)
		}
		want, err := l.Views(r)
		if err != nil {
			t.Fatal(err)
		}
		for v := range got {
			if got[v].Key() != want[v].Key() {
				t.Fatalf("trial %d node %d radius %d: zero-plan view differs from Extract", trial, v, r)
			}
		}
	}
}

// TestGatherFaultsReplayDeterministic is the acceptance criterion: the
// same (seed, plan) replays bit-identical views, stats, and report across
// 10 runs.
func TestGatherFaultsReplayDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := graphtest.ConnectedGNP(9, 0.4, rng)
	l := labeled(g, randomLabels(g.N(), rng))
	plan := chaoticPlan(77)
	plan.Trace = true

	var baseKeys []string
	var baseStats Stats
	var baseTrace []string
	var baseSummary string
	for run := 0; run < 10; run++ {
		views, stats, rep, err := Gather(nil, obs.Scope{}, l, 3, plan)
		if err != nil {
			t.Fatal(err)
		}
		keys := viewKeys(views)
		if run == 0 {
			baseKeys, baseStats, baseTrace, baseSummary = keys, stats, rep.TraceLines(), rep.Summary()
			continue
		}
		if !reflect.DeepEqual(keys, baseKeys) {
			t.Fatalf("run %d: views differ from run 0", run)
		}
		if stats != baseStats {
			t.Fatalf("run %d: stats %+v differ from %+v", run, stats, baseStats)
		}
		if rep.Summary() != baseSummary {
			t.Fatalf("run %d: report %q differs from %q", run, rep.Summary(), baseSummary)
		}
		if !reflect.DeepEqual(rep.TraceLines(), baseTrace) {
			t.Fatalf("run %d: trace differs from run 0", run)
		}
	}
}

// TestGatherSpanAttrs: a traced gather records its plan and the report's
// summary on its sim.gather span. An untraced gather has no span and skips
// formatting both (TestGatherAllocs counts that).
func TestGatherSpanAttrs(t *testing.T) {
	g := graph.Grid(3, 3)
	l := labeled(g, make([]string, g.N()))
	plan := chaoticPlan(5)
	tr := obs.NewTracer(4)
	_, _, rep, err := Gather(nil, obs.NewScope().WithTracer(tr), l, 2, plan)
	if err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Name != "sim.gather" {
		t.Fatalf("spans %+v, want one sim.gather span", spans)
	}
	want := []obs.Attr{{Key: "plan", Value: plan.String()}, {Key: "faults", Value: rep.Summary()}}
	if !reflect.DeepEqual(spans[0].Attrs, want) {
		t.Errorf("attrs %+v, want %+v", spans[0].Attrs, want)
	}
}

// TestGatherFaultsSeedSensitivity: different seeds should (for a chaotic
// plan on a non-trivial instance) produce different schedules.
func TestGatherFaultsSeedSensitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := graphtest.ConnectedGNP(9, 0.5, rng)
	l := labeled(g, randomLabels(g.N(), rng))
	_, _, repA, err := Gather(nil, obs.Scope{}, l, 3, faults.Plan{Seed: 1, Drop: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	_, _, repB, err := Gather(nil, obs.Scope{}, l, 3, faults.Plan{Seed: 2, Drop: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if repA.Dropped == repB.Dropped && repA.Timeouts == repB.Timeouts {
		t.Skip("seeds coincided on this instance; acceptable but rare")
	}
}

// TestGatherFaultsCrashRoundZero pins crash-view semantics: when every
// crash fires at round 0, the crashed nodes never speak, so survivors'
// views equal centralized extraction on the crash-induced subgraph (with
// original port numbers via graph.InducedPorts).
func TestGatherFaultsCrashRoundZero(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 15; trial++ {
		g := graphtest.ConnectedGNP(4+rng.Intn(6), 0.5, rng)
		l := labeled(g, randomLabels(g.N(), rng))
		r := 1 + rng.Intn(3)
		crashed := map[int]int{rng.Intn(g.N()): 0}
		if g.N() > 4 {
			crashed[g.N()-1] = 0
		}
		views, _, rep, err := Gather(nil, obs.Scope{}, l, r, faults.Plan{Crashes: crashed})
		if err != nil {
			t.Fatal(err)
		}
		var survivors []int
		for v := 0; v < g.N(); v++ {
			if _, ok := crashed[v]; !ok {
				survivors = append(survivors, v)
			}
		}
		if len(rep.Crashed) != len(crashed) {
			t.Fatalf("report lists %d crashes, want %d", len(rep.Crashed), len(crashed))
		}
		sub, orig := g.InducedSubgraph(survivors)
		ip, err := graph.InducedPorts(l.Prt, sub, orig)
		if err != nil {
			t.Fatal(err)
		}
		subIDs := make(graph.IDs, sub.N())
		subLabels := make([]string, sub.N())
		for i, h := range orig {
			subIDs[i] = l.IDs[h]
			subLabels[i] = l.Labels[h]
		}
		for i, h := range orig {
			want, err := view.Extract(sub, ip, subIDs, subLabels, l.NBound, i, r)
			if err != nil {
				t.Fatal(err)
			}
			if got := views[h]; got == nil || got.Key() != want.Key() {
				t.Fatalf("trial %d: survivor %d view differs from induced-subgraph extraction", trial, h)
			}
		}
		for v := range crashed {
			if views[v] != nil {
				t.Fatalf("crashed node %d has a view", v)
			}
		}
	}
}

// TestGatherFaultsMidRunCrash: a node crashing at round t has flooded for
// t rounds; it still gets no view, and its neighbors time out from round t
// on.
func TestGatherFaultsMidRunCrash(t *testing.T) {
	g := graph.Path(5)
	l := labeled(g, []string{"a", "b", "c", "d", "e"})
	views, _, rep, err := Gather(nil, obs.Scope{}, l, 3, faults.Plan{Crashes: map[int]int{2: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if views[2] != nil {
		t.Error("crashed node 2 has a view")
	}
	if !reflect.DeepEqual(rep.Crashed, []int{2}) {
		t.Errorf("Crashed = %v", rep.Crashed)
	}
	// Node 2's neighbors (1 and 3) hear silence in rounds 1 and 2: four
	// timeouts in total.
	if rep.Timeouts != 4 {
		t.Errorf("timeouts = %d, want 4", rep.Timeouts)
	}
	// Node 0 learned of node 2 via node 1's round-1 flood (sent before
	// the crash is a round-0 flood only... node 1 flooded know{0,1,2} at
	// round 1, after merging 2's round-0 message), so 2's record is
	// present in 0's view even though 2 is dead.
	if views[0].LocalNodeWithID(l.IDs[2]) < 0 {
		t.Error("node 0 never learned of node 2's pre-crash flood")
	}
	// But node 2's far side (node 4) can never hear anything beyond 3:
	// knowledge of 0 needed 2 alive at rounds 1 and 2.
	if views[4].LocalNodeWithID(l.IDs[0]) >= 0 {
		t.Error("node 4 learned of node 0 through a dead relay")
	}
}

// TestGatherFaultsCrashBeyondHorizonIsNoop: crash rounds at or past the
// radius never fire.
func TestGatherFaultsCrashBeyondHorizonIsNoop(t *testing.T) {
	g := graph.MustCycle(6)
	l := labeled(g, make([]string, 6))
	views, _, rep, err := Gather(nil, obs.Scope{}, l, 2, faults.Plan{Crashes: map[int]int{3: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Crashed) != 0 {
		t.Errorf("crash at round==radius fired: %v", rep.Crashed)
	}
	want, err := l.Views(2)
	if err != nil {
		t.Fatal(err)
	}
	for v := range views {
		if views[v] == nil || views[v].Key() != want[v].Key() {
			t.Fatalf("node %d view differs under no-op crash schedule", v)
		}
	}
}

// TestGatherFaultsDropEverything: with every message dropped, each node is
// stuck with its initial knowledge — a single-node view — and every
// (round, link) pair times out.
func TestGatherFaultsDropEverything(t *testing.T) {
	g := graph.MustCycle(5)
	l := labeled(g, []string{"a", "b", "c", "d", "e"})
	r := 2
	views, stats, rep, err := Gather(nil, obs.Scope{}, l, r, faults.Plan{Drop: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != 0 {
		t.Errorf("drop=1 delivered %d messages", stats.Messages)
	}
	if want := r * 2 * g.M(); rep.Dropped != want || rep.Timeouts != want {
		t.Errorf("dropped=%d timeouts=%d, want %d each", rep.Dropped, rep.Timeouts, want)
	}
	for v, mu := range views {
		if mu.N() != 1 || mu.Labels[0] != l.Labels[v] {
			t.Errorf("node %d assembled %d-node view under total drop", v, mu.N())
		}
		if mu.Radius != r {
			t.Errorf("node %d truncated view radius %d, want %d", v, mu.Radius, r)
		}
	}
}

// TestGatherFaultsDuplicationAndReorderAreInvisible: duplication and
// reordering change the schedule but never the assembled views (knowledge
// merging is commutative and idempotent).
func TestGatherFaultsDuplicationAndReorderAreInvisible(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 10; trial++ {
		g := graphtest.ConnectedGNP(3+rng.Intn(6), 0.5, rng)
		l := labeled(g, randomLabels(g.N(), rng))
		r := 1 + rng.Intn(2)
		views, stats, rep, err := Gather(nil, obs.Scope{}, l, r, faults.Plan{Seed: int64(trial), Duplicate: 0.6, Reorder: true})
		if err != nil {
			t.Fatal(err)
		}
		want, err := l.Views(r)
		if err != nil {
			t.Fatal(err)
		}
		for v := range views {
			if views[v].Key() != want[v].Key() {
				t.Fatalf("trial %d node %d: duplication/reorder changed the view", trial, v)
			}
		}
		if rep.Duplicated > 0 && stats.Messages <= r*2*g.M() {
			t.Errorf("trial %d: %d duplicates but only %d messages", trial, rep.Duplicated, stats.Messages)
		}
	}
}

// TestGatherFaultsDelayStaleKnowledge: a delayed copy carries the
// sender's knowledge at send time, so pure delay can only shrink views,
// never corrupt them — every gathered view is a sub-view of the fault-free
// one, and the node's own record is always present.
func TestGatherFaultsDelaySubviews(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		g := graphtest.ConnectedGNP(4+rng.Intn(5), 0.5, rng)
		l := labeled(g, randomLabels(g.N(), rng))
		r := 1 + rng.Intn(3)
		views, _, rep, err := Gather(nil, obs.Scope{}, l, r, faults.Plan{Seed: int64(trial), Delay: 0.5, MaxDelay: 2})
		if err != nil {
			t.Fatal(err)
		}
		full, err := l.Views(r)
		if err != nil {
			t.Fatal(err)
		}
		for v := range views {
			if views[v].N() > full[v].N() {
				t.Fatalf("trial %d node %d: delayed view larger than fault-free (%d > %d)",
					trial, v, views[v].N(), full[v].N())
			}
			if views[v].Labels[view.Center] != l.Labels[v] {
				t.Fatalf("trial %d node %d: center label lost", trial, v)
			}
		}
		_ = rep
	}
}

// TestRunSchemeFaultsGraceful: crashes degrade into verdicts, never
// errors.
func TestRunSchemeFaultsGraceful(t *testing.T) {
	fr, err := RunSchemeFaultsCtx(nil, obs.Scope{}, decoders.EvenCycle(), core.NewInstance(graph.MustCycle(10)), faults.Plan{Crashes: map[int]int{3: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Verdicts) != 10 {
		t.Fatalf("%d verdicts, want 10", len(fr.Verdicts))
	}
	if fr.Verdicts[3] != core.VerdictCrashed {
		t.Errorf("crashed node verdict = %v", fr.Verdicts[3])
	}
	if fr.AllAccept() {
		t.Error("AllAccept with a crashed node")
	}
	accepted, rejected, crashed := fr.Counts()
	if crashed != 1 || accepted+rejected != 9 {
		t.Errorf("Counts = %d,%d,%d", accepted, rejected, crashed)
	}
}

// TestRunSchemeFaultsCorruptionIsCaught: corrupting a certificate on a
// yes-instance must make some node reject — the schemes' soundness doing
// its job against the injected adversary.
func TestRunSchemeFaultsCorruptionIsCaught(t *testing.T) {
	schemes := []struct {
		name string
		s    core.Scheme
		g    *graph.Graph
	}{
		{"even-cycle C10", decoders.EvenCycle(), graph.MustCycle(10)},
		{"degree-one spider", decoders.DegreeOne(), graph.Spider([]int{2, 3, 1})},
	}
	for _, tt := range schemes {
		t.Run(tt.name, func(t *testing.T) {
			inst := core.NewAnonymousInstance(tt.g)
			if !tt.s.Decoder.Anonymous() {
				inst = core.NewInstance(tt.g)
			}
			rejectedSomewhere := false
			for corrupt := 0; corrupt < tt.g.N(); corrupt++ {
				fr, err := RunSchemeFaultsCtx(nil, obs.Scope{}, tt.s, inst, faults.Plan{Seed: 5, CorruptNodes: []int{corrupt}})
				if err != nil {
					t.Fatal(err)
				}
				if len(fr.Faults.Corrupted) != 1 || fr.Faults.Corrupted[0] != corrupt {
					t.Fatalf("report corruption set %v, want [%d]", fr.Faults.Corrupted, corrupt)
				}
				if !fr.AllAccept() {
					rejectedSomewhere = true
					break
				}
			}
			if !rejectedSomewhere {
				t.Error("no corruption target was ever rejected")
			}
		})
	}
}

// TestRunSchemeFaultsZeroPlanMatchesRunScheme pins that the zero-plan run
// of RunSchemeFaultsCtx on an anonymous instance is the fault-free scheme
// run: the prover's labels decoded centrally by core.Run give the same
// verdicts, and the sequential reference gather gives the same stats.
func TestRunSchemeFaultsZeroPlanMatchesRunScheme(t *testing.T) {
	s := decoders.EvenCycle()
	inst := core.NewAnonymousInstance(graph.MustCycle(8))
	labels, err := s.Prover.Certify(inst)
	if err != nil {
		t.Fatal(err)
	}
	l := core.MustNewLabeled(inst, labels)
	accept, err := core.Run(s.Decoder, l)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := gatherSequential(l, s.Decoder.Rounds())
	if err != nil {
		t.Fatal(err)
	}
	fr, err := RunSchemeFaultsCtx(nil, obs.Scope{}, s, inst, faults.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	if fr.Stats != stats {
		t.Errorf("stats differ: %+v vs %+v", fr.Stats, stats)
	}
	if len(fr.Verdicts) != len(accept) {
		t.Fatalf("%d verdicts vs %d bools", len(fr.Verdicts), len(accept))
	}
	for v, ok := range accept {
		if ok != fr.Verdicts[v].Accepted() {
			t.Errorf("node %d: bool %v vs verdict %v", v, ok, fr.Verdicts[v])
		}
	}
}

// TestGatherFaultsInvalidPlan: plan validation errors surface as errors,
// not degraded runs.
func TestGatherFaultsInvalidPlan(t *testing.T) {
	l := labeled(graph.Path(3), []string{"", "", ""})
	bad := []faults.Plan{
		{Drop: 1.5},
		{Crashes: map[int]int{7: 0}},
		{CorruptNodes: []int{-1}},
	}
	for _, plan := range bad {
		if _, _, _, err := Gather(nil, obs.Scope{}, l, 1, plan); err == nil {
			t.Errorf("plan %+v accepted", plan)
		}
	}
	if _, _, _, err := Gather(nil, obs.Scope{}, l, -1, faults.Plan{}); err == nil {
		t.Error("negative radius accepted")
	}
}

// TestGatherFaultsCancelled: a context that has already fired stops the
// gather before its first round (and at radius 0, where there is none) and
// publishes no views and no report.
func TestGatherFaultsCancelled(t *testing.T) {
	l := labeled(graph.MustCycle(6), make([]string, 6))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range []int{0, 3} {
		views, _, rep, err := Gather(ctx, obs.Scope{}, l, r, chaoticPlan(5))
		if !errors.Is(err, context.Canceled) {
			t.Errorf("r=%d: err = %v, want context.Canceled", r, err)
		}
		if views != nil || rep != nil {
			t.Errorf("r=%d: cancelled gather published views %v and report %v", r, views, rep)
		}
	}
}

// TestGatherFaultsAllCrash: every node crashing at round 0 still
// terminates and returns all-nil views.
func TestGatherFaultsAllCrash(t *testing.T) {
	g := graph.Path(4)
	l := labeled(g, make([]string, 4))
	crashes := map[int]int{0: 0, 1: 0, 2: 0, 3: 0}
	views, stats, rep, err := Gather(nil, obs.Scope{}, l, 2, faults.Plan{Crashes: crashes})
	if err != nil {
		t.Fatal(err)
	}
	for v, mu := range views {
		if mu != nil {
			t.Errorf("crashed node %d has a view", v)
		}
	}
	if stats.Messages != 0 {
		t.Errorf("all-crash run sent %d messages", stats.Messages)
	}
	if len(rep.Crashed) != 4 {
		t.Errorf("Crashed = %v", rep.Crashed)
	}
}
