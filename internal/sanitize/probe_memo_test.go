package sanitize_test

import (
	"testing"

	"hidinglcp/internal/core"
	"hidinglcp/internal/decoders"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/sanitize"
	"hidinglcp/internal/view"
)

// TestSanitizeMemoDecoder probes the determinism contract straight through
// the memoized decoder layer: a MemoDecoder wrapping a well-behaved decoder
// must pass every sanitizer check (the memo is observationally pure), on
// views instantiated from shared Extractor templates — the exact structures
// the fast-path builders feed to decoders.
func TestSanitizeMemoDecoder(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    core.Decoder
		g    *graph.Graph
	}{
		{"degree-one", decoders.DegreeOne().Decoder, graph.Spider([]int{2, 2, 2})},
		{"even-cycle", decoders.EvenCycle().Decoder, graph.MustCycle(6)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			md := core.NewMemoDecoder(tc.d, nil)
			san, res := sanitize.WithScheme(core.Scheme{Name: tc.name, Decoder: md}, sanitize.Config{})

			ex := new(view.Extractor)
			labels := make([]string, tc.g.N())
			for i := range labels {
				labels[i] = []string{"0", "1"}[i%2]
			}
			pt := graph.DefaultPorts(tc.g)
			for v := 0; v < tc.g.N(); v++ {
				tpl, err := ex.Template(tc.g, pt, nil, tc.g.N(), v, md.Rounds())
				if err != nil {
					t.Fatal(err)
				}
				// Two instantiations per template: the sanitizer's mutation
				// probes must hold on repeat template-shared views exactly as
				// on fresh ones.
				san.Decoder.Decide(tpl.Instantiate(labels))
				san.Decoder.Decide(tpl.Instantiate(labels))
			}
			if err := res.Err(); err != nil {
				t.Fatalf("sanitizer flagged the memoized decoder: %v", err)
			}
			if res.Decisions() == 0 {
				t.Fatal("sanitizer saw no decisions")
			}
		})
	}
}

// TestSanitizeCheckLabeledMemo runs the bundled CheckLabeled probe over a
// memoized decoder on certified instances.
func TestSanitizeCheckLabeledMemo(t *testing.T) {
	s := decoders.DegreeOne()
	inst := core.NewAnonymousInstance(graph.Spider([]int{2, 2}))
	labels, err := s.Prover.Certify(inst)
	if err != nil {
		t.Fatal(err)
	}
	l := core.MustNewLabeled(inst, labels)
	md := core.NewMemoDecoder(s.Decoder, nil)
	res, err := sanitize.CheckLabeled(md, []core.Labeled{l}, sanitize.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatalf("CheckLabeled flagged the memoized decoder: %v", err)
	}
}
