package sim

import (
	"context"
	"fmt"
	"testing"

	"hidinglcp/internal/core"
	"hidinglcp/internal/decoders"
	"hidinglcp/internal/faults"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/obs"
)

// matrixGraphs is the generator side of the differential matrix: one
// representative per generator family.
func matrixGraphs(t *testing.T) []struct {
	name string
	g    *graph.Graph
} {
	t.Helper()
	torus, err := graph.Torus(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"path:6", graph.Path(6)},
		{"cycle:8", graph.MustCycle(8)},
		{"grid:3x4", graph.Grid(3, 4)},
		{"torus:3x4", torus},
		{"watermelon:2+3+2", graph.MustWatermelon([]int{2, 3, 2})},
		{"spider:2+3+1", graph.Spider([]int{2, 3, 1})},
		{"star:5", graph.Star(5)},
	}
}

// TestDifferentialMatrix runs the full decoder × generator matrix and
// checks that all four view pipelines agree node-by-node: centralized
// extraction, sequential simulation, and the zero-plan goroutine-per-node
// runtime under both the nil context (single-slot links) and a live one
// (links widened for cancellation). The radii exercised are exactly the
// registered decoders' radii — the ones the schemes run at.
func TestDifferentialMatrix(t *testing.T) {
	// Collect the distinct verification radii of every registered scheme.
	radii := map[int]bool{}
	for _, name := range decoders.SchemeNames() {
		s, err := decoders.SchemeByName(name)
		if err != nil {
			t.Fatal(err)
		}
		radii[s.Decoder.Rounds()] = true
	}
	if len(radii) == 0 {
		t.Fatal("no registered schemes")
	}
	for _, tg := range matrixGraphs(t) {
		labels := make([]string, tg.g.N())
		for v := range labels {
			labels[v] = fmt.Sprintf("c%d", v%3)
		}
		l := labeled(tg.g, labels)
		for r := range radii {
			t.Run(fmt.Sprintf("%s/r=%d", tg.name, r), func(t *testing.T) {
				want, err := l.Views(r)
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				live, _, _, err := GatherFaultsCtx(ctx, obs.Scope{}, l, r, faults.Plan{})
				if err != nil {
					t.Fatal(err)
				}
				seq, _, err := gatherSequential(l, r)
				if err != nil {
					t.Fatal(err)
				}
				zero, _, rep, err := GatherFaultsCtx(nil, obs.Scope{}, l, r, faults.Plan{})
				if err != nil {
					t.Fatal(err)
				}
				if s := rep.Summary(); s != "dropped=0 duplicated=0 delayed=0 expired=0 timeouts=0 crashed=[] corrupted=[]" {
					t.Fatalf("zero plan produced faults: %s", s)
				}
				for v := range want {
					wk := want[v].Key()
					if live[v].Key() != wk {
						t.Errorf("node %d: live-context gather differs from Extract", v)
					}
					if seq[v].Key() != wk {
						t.Errorf("node %d: sequential gather differs from Extract", v)
					}
					if zero[v].Key() != wk {
						t.Errorf("node %d: nil-context gather differs from Extract", v)
					}
				}
			})
		}
	}
}

// TestSchemeMatrixZeroPlan drives every registered scheme end-to-end on a
// yes-instance of its promise through the zero-plan runtime and checks it
// against the centralized run: identical verdicts, all accepting, and the
// sequential reference gather's communication stats.
func TestSchemeMatrixZeroPlan(t *testing.T) {
	yes := map[string]*graph.Graph{
		"trivial":         graph.Grid(3, 4),
		"trivial3":        graph.MustCycle(9),
		"degree-one":      graph.Spider([]int{2, 3, 1}),
		"even-cycle":      graph.MustCycle(10),
		"union":           graph.Star(6),
		"shatter":         graph.Grid(3, 3),
		"shatter-literal": graph.Grid(3, 3),
		"watermelon":      graph.MustWatermelon([]int{2, 4, 2}),
	}
	for _, name := range decoders.SchemeNames() {
		g, ok := yes[name]
		if !ok {
			t.Errorf("no yes-instance registered for scheme %q; extend the matrix", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			s, err := decoders.SchemeByName(name)
			if err != nil {
				t.Fatal(err)
			}
			inst := core.NewInstance(g)
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
				t.Errorf("stats diverge: %+v vs %+v", fr.Stats, stats)
			}
			if len(fr.Verdicts) != len(accept) {
				t.Fatalf("%d verdicts vs %d bools", len(fr.Verdicts), len(accept))
			}
			for v, ok := range accept {
				if !ok {
					t.Errorf("node %d rejects a yes-instance", v)
				}
				if fr.Verdicts[v].Accepted() != ok {
					t.Errorf("node %d: verdict %v vs bool %v", v, fr.Verdicts[v], ok)
				}
			}
			if !fr.AllAccept() {
				t.Error("fault runtime does not report all-accept")
			}
		})
	}
}
