package experiments

import (
	"context"
	"fmt"

	"hidinglcp/internal/core"
	"hidinglcp/internal/decoders"
	"hidinglcp/internal/faults"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/sim"
)

// E13Simulator runs the schemes as genuine synchronous message-passing
// computations (Section 2.2's model) and reports communication volumes. The
// simulator's views are verified against centralized extraction in the sim
// package's tests; here we record the cost profile.
func E13Simulator(ctx context.Context) Table {
	t := Table{
		ID:      "E13",
		Title:   "message-passing verification (Section 2.2 model)",
		Columns: []string{"scheme", "instance", "n", "rounds", "messages", "records", "all accept"},
	}
	runs := []struct {
		s    core.Scheme
		name string
		g    *graph.Graph
		anon bool
	}{
		{decoders.Trivial(2), "grid 6x6", graph.Grid(6, 6), true},
		{decoders.DegreeOne(), "spider(5,5,5)", graph.Spider([]int{5, 5, 5}), true},
		{decoders.EvenCycle(), "C30", graph.MustCycle(30), true},
		{decoders.Union(), "C24", graph.MustCycle(24), true},
		{decoders.Shatter(), "grid 5x5", graph.Grid(5, 5), false},
		{decoders.Watermelon(), "watermelon 4x8", graph.MustWatermelon([]int{8, 8, 8, 8}), false},
	}
	sc := scope().Named("E13")
	for _, r := range runs {
		var inst core.Instance
		if r.anon {
			inst = core.NewAnonymousInstance(r.g)
		} else {
			inst = core.NewInstance(r.g)
		}
		fr, err := sim.RunSchemeFaultsCtx(ctx, sc, r.s, inst, faults.Plan{})
		if err != nil {
			t.Err = fmt.Errorf("%s on %s: %w", r.s.Name, r.name, err)
			return t
		}
		t.AddRow(r.s.Name, r.name, r.g.N(), fr.Stats.Rounds, fr.Stats.Messages, fr.Stats.Records, fr.AllAccept())
	}
	t.Notes = "One message per directed edge per round (2·m·r total), as the synchronous LOCAL " +
		"model prescribes; the records column counts flooded node records, a bandwidth proxy. " +
		"The gathered views equal centralized extraction (property-tested in internal/sim)."
	return t
}
