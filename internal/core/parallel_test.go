package core

import (
	"errors"
	"math/rand"
	"testing"

	"hidinglcp/internal/graph"
	"hidinglcp/internal/obs"
	"hidinglcp/internal/view"
)

// centerNonzeroDecoder accepts iff the center's label is not "0". Against
// TwoCol on an odd cycle it is unsound: the lexicographically first violating
// labeling is all-"1" (every node accepts, the accepting set induces the odd
// cycle itself), which pins down the parallel search's first-violation
// determinism.
func centerNonzeroDecoder() Decoder {
	return NewDecoder(1, true, func(mu *view.View) bool {
		return mu.Labels[view.Center] != "0"
	})
}

func alwaysAcceptDecoder() Decoder {
	return NewDecoder(1, true, func(*view.View) bool { return true })
}

// violationLabels extracts the violating labeling, or nil for a clean pass.
func violationLabels(t *testing.T, err error) []string {
	t.Helper()
	if err == nil {
		return nil
	}
	var v *StrongSoundnessViolation
	if !errors.As(err, &v) {
		t.Fatalf("unexpected error type: %v", err)
	}
	return v.Labeled.Labels
}

var parallelGrid = []struct{ shards, workers int }{
	{0, 0}, {1, 1}, {3, 2}, {16, 2}, {7, 7}, {16, 16},
}

func TestExhaustiveParallelMatchesSequential(t *testing.T) {
	cases := []struct {
		name     string
		d        Decoder
		inst     Instance
		alphabet []string
	}{
		{"reveal-sound/P4", revealDecoder(), NewInstance(graph.Path(4)), []string{"0", "1", "x"}},
		{"reveal-sound/C4", revealDecoder(), NewInstance(graph.MustCycle(4)), []string{"0", "1"}},
		{"center-nonzero/C5", centerNonzeroDecoder(), NewInstance(graph.MustCycle(5)), []string{"0", "1", "2"}},
		{"always-accept/C3", alwaysAcceptDecoder(), NewInstance(graph.MustCycle(3)), []string{"a", "b"}},
	}
	lang := TwoCol()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			seqErr := referenceExhaustive(c.d, lang, c.inst, c.alphabet)
			seqLabels := violationLabels(t, seqErr)
			for _, p := range parallelGrid {
				parErr := ExhaustiveStrongSoundnessParallelCtx(nil, obs.Scope{}, c.d, lang, c.inst, c.alphabet, p.shards, p.workers)
				if (seqErr == nil) != (parErr == nil) {
					t.Fatalf("shards=%d workers=%d: sequential err %v, parallel err %v", p.shards, p.workers, seqErr, parErr)
				}
				if seqErr == nil {
					continue
				}
				parLabels := violationLabels(t, parErr)
				if len(parLabels) != len(seqLabels) {
					t.Fatalf("shards=%d workers=%d: violation labels %v != sequential %v", p.shards, p.workers, parLabels, seqLabels)
				}
				for i := range seqLabels {
					if parLabels[i] != seqLabels[i] {
						t.Fatalf("shards=%d workers=%d: violation labels %v != sequential %v", p.shards, p.workers, parLabels, seqLabels)
					}
				}
			}
		})
	}
}

// TestExhaustiveParallelFirstViolation pins the early-stop determinism of the
// parallel search: whatever the shard/worker schedule, the reported violation
// is the lexicographically first one — all-"1" on C5, rank 121 of 3^5.
func TestExhaustiveParallelFirstViolation(t *testing.T) {
	inst := NewInstance(graph.MustCycle(5))
	alphabet := []string{"0", "1", "2"}
	want := []string{"1", "1", "1", "1", "1"}
	for rep := 0; rep < 5; rep++ {
		for _, p := range parallelGrid {
			err := ExhaustiveStrongSoundnessParallelCtx(nil, obs.Scope{}, centerNonzeroDecoder(), TwoCol(), inst, alphabet, p.shards, p.workers)
			got := violationLabels(t, err)
			if len(got) != len(want) {
				t.Fatalf("rep=%d shards=%d workers=%d: got violation %v, want %v", rep, p.shards, p.workers, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("rep=%d shards=%d workers=%d: got violation %v, want %v", rep, p.shards, p.workers, got, want)
				}
			}
		}
	}
}

func TestFuzzParallelMatchesSequential(t *testing.T) {
	alphabet := []string{"0", "1", "x"}
	gen := func(_ int, rng *rand.Rand) string { return alphabet[rng.Intn(len(alphabet))] }
	cases := []struct {
		name string
		d    Decoder
		inst Instance
	}{
		{"reveal-sound/petersen", revealDecoder(), NewInstance(graph.Petersen())},
		{"center-nonzero/C5", centerNonzeroDecoder(), NewInstance(graph.MustCycle(5))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, workers := range []int{0, 1, 2, 7} {
				seqErr := fuzzStrongSoundness(c.d, TwoCol(), c.inst, 200, rand.New(rand.NewSource(42)), gen)
				parErr := FuzzStrongSoundness(nil, obs.Scope{}, c.d, TwoCol(), c.inst, 200, rand.New(rand.NewSource(42)), gen, workers)
				switch {
				case seqErr == nil && parErr == nil:
				case seqErr == nil || parErr == nil:
					t.Fatalf("workers=%d: sequential err %v, parallel err %v", workers, seqErr, parErr)
				case seqErr.Error() != parErr.Error():
					t.Fatalf("workers=%d: sequential %q != parallel %q", workers, seqErr, parErr)
				}
			}
		})
	}
}

// TestCheckAnonymousEdgeCases drives CheckAnonymous through its boundary
// inputs: no assignments at all, a single-node graph, and bounds too small
// for the identifiers.
func TestCheckAnonymousEdgeCases(t *testing.T) {
	single := MustNewLabeled(NewAnonymousInstance(graph.New(1)), []string{"0"})
	path := MustNewLabeled(NewAnonymousInstance(graph.Path(3)), []string{"0", "1", "0"})
	cases := []struct {
		name    string
		l       Labeled
		idSets  []graph.IDs
		nBounds []int
		wantErr bool
	}{
		{"empty-id-sets", path, nil, nil, false},
		{"single-assignment", path, []graph.IDs{{1, 2, 3}}, []int{3}, false},
		{"single-node-graph", single, []graph.IDs{{5}, {9}}, []int{10, 10}, false},
		{"length-mismatch", path, []graph.IDs{{1, 2, 3}}, []int{3, 4}, true},
		{"nbound-below-ids", path, []graph.IDs{{1, 2, 3}}, []int{2}, true},
		{"wrong-id-count", path, []graph.IDs{{1, 2}}, []int{3}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := CheckAnonymous(revealDecoder(), c.l, c.idSets, c.nBounds)
			if (err != nil) != c.wantErr {
				t.Errorf("CheckAnonymous = %v, wantErr = %v", err, c.wantErr)
			}
		})
	}
}

// TestCheckOrderInvariantEdgeCases: empty assignment lists pass vacuously;
// pairs with different identifier orders are exempt from the comparison; a
// parity-sensitive decoder is caught on a same-order pair.
func TestCheckOrderInvariantEdgeCases(t *testing.T) {
	l := MustNewLabeled(NewAnonymousInstance(graph.Path(3)), []string{"", "", ""})
	parity := NewDecoder(1, false, func(mu *view.View) bool {
		return mu.IDs[view.Center]%2 == 0
	})
	cases := []struct {
		name    string
		d       Decoder
		idSets  []graph.IDs
		wantErr bool
	}{
		{"empty-id-sets", parity, nil, false},
		{"single-assignment", parity, []graph.IDs{{2, 4, 6}}, false},
		{"different-order-ignored", parity, []graph.IDs{{1, 2, 3}, {3, 2, 1}}, false},
		{"same-order-parity-violation", parity, []graph.IDs{{2, 4, 6}, {1, 3, 5}}, true},
		{"order-invariant-decoder", revealDecoder(), []graph.IDs{{2, 4, 6}, {1, 3, 5}}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := CheckOrderInvariant(c.d, l, c.idSets, 30)
			if (err != nil) != c.wantErr {
				t.Errorf("CheckOrderInvariant = %v, wantErr = %v", err, c.wantErr)
			}
		})
	}
}
