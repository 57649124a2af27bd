package decoders

import (
	"context"
	"errors"
	"testing"

	"hidinglcp/internal/core"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/obs"
)

// distinctLabels collects up to max distinct certificate symbols from a
// labeled instance, in first-appearance order — a small real-symbol alphabet
// for exhaustive soundness sweeps over decoders whose full label space is
// unbounded (shatter, watermelon).
func distinctLabels(l core.Labeled, max int) []string {
	var out []string
	seen := map[string]bool{}
	for _, lab := range l.Labels {
		if seen[lab] {
			continue
		}
		seen[lab] = true
		out = append(out, lab)
		if len(out) == max {
			break
		}
	}
	return out
}

// sameSoundness fails unless the two soundness-search results agree: both
// clean, or the same violation (compared by the violating labeling, falling
// back to the error text for non-violation errors).
func sameSoundness(t *testing.T, tag string, seqErr, parErr error) {
	t.Helper()
	if (seqErr == nil) != (parErr == nil) {
		t.Fatalf("%s: sequential err %v, parallel err %v", tag, seqErr, parErr)
	}
	if seqErr == nil {
		return
	}
	var sv, pv *core.StrongSoundnessViolation
	if errors.As(seqErr, &sv) != errors.As(parErr, &pv) {
		t.Fatalf("%s: sequential %v, parallel %v", tag, seqErr, parErr)
	}
	if sv == nil {
		if seqErr.Error() != parErr.Error() {
			t.Fatalf("%s: sequential %q != parallel %q", tag, seqErr, parErr)
		}
		return
	}
	if len(sv.Labeled.Labels) != len(pv.Labeled.Labels) {
		t.Fatalf("%s: violation %v != sequential %v", tag, pv.Labeled.Labels, sv.Labeled.Labels)
	}
	for i := range sv.Labeled.Labels {
		if sv.Labeled.Labels[i] != pv.Labeled.Labels[i] {
			t.Fatalf("%s: violation %v != sequential %v", tag, pv.Labeled.Labels, sv.Labeled.Labels)
		}
	}
}

// TestParallelSoundnessMatchesSequential runs the exhaustive strong-soundness
// search sequentially and sharded for every decoder in this package, on a
// small instance with a workable alphabet, and demands identical results.
func TestParallelSoundnessMatchesSequential(t *testing.T) {
	shatterL1, _ := ShatterHidingPair()
	melonL1, _, err := WatermelonHidingPair()
	if err != nil {
		t.Fatal(err)
	}
	litLabels := []string{ShatterPointLabelLiteral(3), ShatterNeighborLabel(3, nil), ShatterCompLabel(3, 1, 0)}
	cases := []struct {
		name     string
		s        core.Scheme
		inst     core.Instance
		alphabet []string
	}{
		{"trivial2", Trivial(2), core.NewAnonymousInstance(graph.MustCycle(5)), []string{"0", "1", "x"}},
		{"trivial3", Trivial(3), core.NewAnonymousInstance(graph.Path(4)), []string{"0", "1", "2"}},
		{"degree-one", DegreeOne(), core.NewAnonymousInstance(graph.MustCycle(5)), DegOneAlphabet()},
		{"degree-one-k3", DegreeOneK(3), core.NewAnonymousInstance(graph.Path(4)), DegOneKAlphabet(3)},
		{"even-cycle", EvenCycle(), core.NewAnonymousInstance(graph.MustCycle(4)), EvenCycleAlphabet()[:6]},
		{"union", Union(), core.NewAnonymousInstance(graph.Path(4)), append(DegOneAlphabet(), "x")},
		{"shatter", Shatter(), shatterL1.Instance, distinctLabels(shatterL1, 3)},
		{"shatter-literal", ShatterLiteral(), core.NewInstance(graph.Path(5)), litLabels},
		{"watermelon", Watermelon(), melonL1.Instance, distinctLabels(melonL1, 3)},
	}
	grid := []struct{ shards, workers int }{{0, 0}, {3, 2}, {16, 7}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			seqErr := core.ExhaustiveStrongSoundnessParallelCtx(context.Background(), obs.Scope{}, c.s.Decoder, c.s.Promise.Lang, c.inst, c.alphabet, 1, 1)
			for _, p := range grid {
				parErr := core.ExhaustiveStrongSoundnessParallelCtx(context.Background(), obs.Scope{}, c.s.Decoder, c.s.Promise.Lang, c.inst, c.alphabet, p.shards, p.workers)
				sameSoundness(t, c.name, seqErr, parErr)
			}
		})
	}
}
