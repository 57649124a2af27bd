package core

import (
	"math/rand"
	"testing"

	"hidinglcp/internal/graph"
	"hidinglcp/internal/obs"
	"hidinglcp/internal/view"
)

// TestExhaustiveScopedEquivalence checks that a live scope never changes
// the search result, and that the sweep counters land nonzero and
// consistent after a full exhaustive pass.
func TestExhaustiveScopedEquivalence(t *testing.T) {
	d := revealDecoder()
	lang := TwoCol()
	inst := NewInstance(graph.Path(4))
	alphabet := []string{"0", "1", "x"}

	bare := ExhaustiveStrongSoundnessParallelCtx(nil, obs.Scope{}, d, lang, inst, alphabet, 8, 4)
	sc := obs.NewScope().WithTracer(obs.NewTracer(64))
	scoped := ExhaustiveStrongSoundnessParallelCtx(nil, sc, d, lang, inst, alphabet, 8, 4)
	if (bare == nil) != (scoped == nil) {
		t.Fatalf("scoped search changed the verdict: bare %v, scoped %v", bare, scoped)
	}

	checked := sc.Counter("core.sweep.labelings.checked").Value()
	decides := sc.Counter("core.sweep.decide.calls").Value()
	memoHits := sc.Counter("core.sweep.decide.memo_hits").Value()
	inner := sc.Counter("core.sweep.decide.inner").Value()
	done := sc.Counter("core.sweep.shards.done").Value()
	if checked == 0 || decides == 0 || memoHits == 0 || done == 0 {
		t.Errorf("headline counters must be nonzero: checked=%d decide.calls=%d memo_hits=%d shards.done=%d",
			checked, decides, memoHits, done)
	}
	if decides != memoHits+inner {
		t.Errorf("decide.calls (%d) != memo_hits (%d) + inner (%d)", decides, memoHits, inner)
	}
	// The clean search visits all |alphabet|^n labelings exactly once
	// across shards (no pruning without a violation).
	if want := int64(3 * 3 * 3 * 3); checked != want {
		t.Errorf("labelings.checked = %d, want %d", checked, want)
	}
	langTotal := sc.Counter("core.sweep.lang.evals").Value() + sc.Counter("core.sweep.lang.memo_hits").Value()
	if langTotal != checked {
		t.Errorf("lang evals+memo_hits (%d) != labelings checked (%d)", langTotal, checked)
	}
	if sc.Counter("core.sweep.violations").Value() != 0 {
		t.Errorf("violations counter nonzero on a sound decoder")
	}

	var haveSpan bool
	for _, sp := range sc.Tracer().Spans() {
		if sp.Name == "core.exhaustive" {
			haveSpan = true
		}
	}
	if !haveSpan {
		t.Error("no core.exhaustive span recorded")
	}
}

// TestExhaustiveScopedViolationCounters checks the pruning-side counters on
// an unsound decoder: the violation is found, counted, and prunes work.
func TestExhaustiveScopedViolationCounters(t *testing.T) {
	d := centerNonzeroDecoder()
	lang := TwoCol()
	inst := NewInstance(graph.MustCycle(5))
	alphabet := []string{"0", "1", "2"}

	bare := ExhaustiveStrongSoundnessParallelCtx(nil, obs.Scope{}, d, lang, inst, alphabet, 8, 4)
	sc := obs.NewScope()
	scoped := ExhaustiveStrongSoundnessParallelCtx(nil, sc, d, lang, inst, alphabet, 8, 4)
	bareLabels, scopedLabels := violationLabels(t, bare), violationLabels(t, scoped)
	if len(bareLabels) == 0 || len(scopedLabels) == 0 {
		t.Fatalf("expected a violation from both searches: bare %v, scoped %v", bare, scoped)
	}
	for i := range bareLabels {
		if bareLabels[i] != scopedLabels[i] {
			t.Fatalf("scoped violation %v != bare %v", scopedLabels, bareLabels)
		}
	}
	if got := sc.Counter("core.sweep.violations").Value(); got != 1 {
		t.Errorf("violations = %d, want 1", got)
	}
	if sc.Counter("core.sweep.shards.pruned").Value() == 0 {
		t.Error("expected pruned shard positions after an early violation")
	}
}

// TestExhaustiveScopedSequentialFallback pins the fallback counter: a
// single-worker request must route to the sequential search and say so.
func TestExhaustiveScopedSequentialFallback(t *testing.T) {
	sc := obs.NewScope()
	err := ExhaustiveStrongSoundnessParallelCtx(nil, sc, revealDecoder(), TwoCol(), NewInstance(graph.Path(3)), []string{"0", "1", "x"}, 1, 1)
	if err != nil {
		t.Fatalf("sequential fallback failed: %v", err)
	}
	if got := sc.Counter("core.sweep.sequential_fallback").Value(); got != 1 {
		t.Errorf("sequential_fallback = %d, want 1", got)
	}
}

// TestFuzzScopedCounters checks the fuzz driver's trial accounting and that
// instrumentation leaves the reported violation untouched.
func TestFuzzScopedCounters(t *testing.T) {
	d := revealDecoder()
	lang := TwoCol()
	inst := NewInstance(graph.Path(4))
	gen := func(node int, rng *rand.Rand) string {
		return []string{"0", "1", "x"}[rng.Intn(3)]
	}

	bare := FuzzStrongSoundnessParallelCtx(nil, obs.Scope{}, d, lang, inst, 200, rand.New(rand.NewSource(7)), gen, 4)
	sc := obs.NewScope()
	scoped := FuzzStrongSoundnessParallelCtx(nil, sc, d, lang, inst, 200, rand.New(rand.NewSource(7)), gen, 4)
	if (bare == nil) != (scoped == nil) {
		t.Fatalf("scoped fuzz changed the verdict: bare %v, scoped %v", bare, scoped)
	}
	if got := sc.Counter("core.fuzz.trials.checked").Value(); got != 200 {
		t.Errorf("trials.checked = %d, want 200", got)
	}
	if sc.Counter("core.sweep.decide.calls").Value() == 0 {
		t.Error("fuzz sweep recorded no decide calls")
	}
}

// TestInstrumentDecoder checks the counting wrapper: verdicts are delegated
// unchanged, calls and accepts are tallied, and a disabled scope is free.
func TestInstrumentDecoder(t *testing.T) {
	inner := NewDecoder(1, true, func(mu *view.View) bool {
		return mu.Labels[view.Center] == "1"
	})
	if got := InstrumentDecoder(inner, obs.Scope{}, "x"); got != inner {
		t.Error("disabled scope must return the decoder unwrapped")
	}

	sc := obs.NewScope()
	d := InstrumentDecoder(inner, sc, "probe")
	if d.Rounds() != inner.Rounds() || d.Anonymous() != inner.Anonymous() {
		t.Error("wrapper changed Rounds/Anonymous")
	}
	var ex view.Extractor
	inst := NewInstance(graph.Path(2))
	for i, want := range []bool{false, true} {
		labels := []string{"0", "0"}
		if want {
			labels[0] = "1"
		}
		mu, err := ex.Extract(inst.G, inst.Prt, nil, labels, inst.NBound, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := d.Decide(mu); got != want {
			t.Errorf("trial %d: wrapper verdict %v, want %v", i, got, want)
		}
	}
	if got := sc.Counter("probe.decide.calls").Value(); got != 2 {
		t.Errorf("decide.calls = %d, want 2", got)
	}
	if got := sc.Counter("probe.decide.accepts").Value(); got != 1 {
		t.Errorf("decide.accepts = %d, want 1", got)
	}
}
