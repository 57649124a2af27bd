package hidinglcp_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"hidinglcp/internal/core"
	"hidinglcp/internal/decoders"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/nbhd"
	"hidinglcp/internal/obs"
	"hidinglcp/internal/view"
)

// These tests pin the pooled-memory isolation contract of the allocation-free
// pipeline: everything a build or a soundness check returns must be fully
// owned by the caller. If arena views, pooled key scratch, or reused
// enumeration slices ever leaked into a result, mutating that result would
// corrupt shared state and change the outcome of a subsequent run.

// ngFingerprint renders every observable property of a neighborhood graph
// into one string: canonical keys in node order, loops, and the adjacency
// structure.
func ngFingerprint(ng *nbhd.NGraph) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "n=%d m=%d\n", ng.Size(), ng.EdgeCount())
	for i := 0; i < ng.Size(); i++ {
		mu := ng.ViewAt(i)
		fmt.Fprintf(&sb, "%d loop=%v key=%q labels=%v adj=%v\n",
			i, ng.HasLoop(i), mu.Key(), mu.Labels, ng.Graph().Neighbors(i))
	}
	return sb.String()
}

// TestBuildResultAliasing mutates every mutable structure reachable from one
// build's result — view label slices, the adjacency rows, the accepting
// graph — and asserts that an identical fresh build is bit-identical to the
// pristine first fingerprint.
func TestBuildResultAliasing(t *testing.T) {
	s := decoders.DegreeOne()
	build := func() *nbhd.NGraph {
		ng, err := nbhd.BuildShardedCtx(context.Background(), obs.Scope{}, s.Decoder, nbhd.ShardedAllLabelings(decoders.DegOneAlphabet(), decoders.DegOneFamily(3)...), 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		return ng
	}

	first := build()
	want := ngFingerprint(first)

	// Vandalize the first result as thoroughly as the API allows. Views are
	// contractually immutable, so this violates the contract on purpose: the
	// point is that the damage must stay confined to `first` and not reach
	// any pooled or interned state a fresh build consumes.
	for i := 0; i < first.Size(); i++ {
		mu := first.ViewAt(i)
		for j := range mu.Labels {
			mu.Labels[j] = "vandalized"
		}
		for _, row := range mu.Adj {
			for k := range row {
				row[k] = -row[k] - 1
			}
		}
		for j := range mu.Dist {
			mu.Dist[j] = 99
		}
	}

	second := build()
	if got := ngFingerprint(second); got != want {
		t.Errorf("rebuild after mutating the first result diverged:\nfirst (pristine):\n%s\nsecond:\n%s", want, got)
	}
}

// acceptAllDecoder accepts every view — deliberately unsound, so a
// strong-soundness search is guaranteed to return a witness.
type acceptAllDecoder struct{}

func (acceptAllDecoder) Rounds() int            { return 1 }
func (acceptAllDecoder) Anonymous() bool        { return true }
func (acceptAllDecoder) Decide(*view.View) bool { return true }

// TestViolationWitnessAliasing mutates a returned strong-soundness witness
// and asserts the identical violation is found again on a re-run.
func TestViolationWitnessAliasing(t *testing.T) {
	// Every node accepts every labeling, so on an odd cycle the accepting
	// set induces the whole (non-2-colorable) cycle: the very first labeling
	// is a violation.
	inst := core.NewAnonymousInstance(graph.MustCycle(5))
	alphabet := []string{"a", "b"}

	find := func() *core.StrongSoundnessViolation {
		err := core.ExhaustiveStrongSoundnessParallelCtx(context.Background(), obs.Scope{}, acceptAllDecoder{}, core.TwoCol(), inst, alphabet, 1, 1)
		var v *core.StrongSoundnessViolation
		if !errors.As(err, &v) {
			t.Fatalf("expected a strong-soundness violation, got %v", err)
		}
		return v
	}

	first := find()
	want := fmt.Sprintf("%v|%v", first.Labeled.Labels, first.Accepting)

	for i := range first.Labeled.Labels {
		first.Labeled.Labels[i] = "vandalized"
	}
	for i := range first.Accepting {
		first.Accepting[i] = -1
	}

	second := find()
	if got := fmt.Sprintf("%v|%v", second.Labeled.Labels, second.Accepting); got != want {
		t.Errorf("witness after mutating the first one = %s, want %s", got, want)
	}
}
