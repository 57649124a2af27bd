package experiments

import (
	"context"
	"fmt"

	"hidinglcp/internal/core"
	"hidinglcp/internal/graph"
)

// E2Views reproduces Fig. 2 and the Section 3 definitions: the radius-r
// view truncates edges between two distance-r nodes (the paper's "edge
// between nodes 1 and 4 is not visible"), and every edge of a labeled
// instance connects yes-instance-compatible views. The table counts, per
// family and radius, how many of the instance's edges are invisible from at
// least one endpoint's view center... precisely: how many frontier-frontier
// pairs each node's view hides.
func E2Views(ctx context.Context) Table {
	t := Table{
		ID:      "E2",
		Title:   "view truncation and compatibility (Fig. 2)",
		Columns: []string{"graph", "r", "avg view size", "hidden edges per view", "distinct views (anon)"},
	}
	corpus := []struct {
		name string
		g    *graph.Graph
	}{
		{"C5", graph.MustCycle(5)},
		{"C8", graph.MustCycle(8)},
		{"grid 3x4", graph.Grid(3, 4)},
		{"Petersen", graph.Petersen()},
		{"theta(2,3,4)", graph.MustWatermelon([]int{2, 3, 4})},
	}
	for _, c := range corpus {
		for r := 1; r <= 2; r++ {
			l := core.MustNewLabeled(core.NewInstance(c.g), make([]string, c.g.N()))
			views, err := l.Views(r)
			if err != nil {
				t.Err = err
				return t
			}
			totalSize, hidden := 0, 0
			distinct := make(map[string]bool)
			for v, mu := range views {
				totalSize += mu.N()
				distinct[mu.Anonymize().Key()] = true
				// Count host edges inside the ball that the view omits.
				ball := c.g.Ball(v, r)
				inBall := make(map[int]bool, len(ball))
				for _, w := range ball {
					inBall[w] = true
				}
				ballEdges := 0
				for _, e := range c.g.Edges() {
					if inBall[e[0]] && inBall[e[1]] {
						ballEdges++
					}
				}
				visible := 0
				for _, row := range mu.Ports.Rows {
					for _, w := range row {
						if w >= 0 {
							visible++
						}
					}
				}
				visible /= 2
				hidden += ballEdges - visible
			}
			n := c.g.N()
			t.AddRow(c.name, r,
				fmt.Sprintf("%.2f", float64(totalSize)/float64(n)),
				fmt.Sprintf("%.2f", float64(hidden)/float64(n)),
				len(distinct))
		}
	}
	t.Notes = "Paper: G_v^r contains the full structure up to r-1 hops but no edges between " +
		"nodes both at distance r (Fig. 2); measured: every hidden edge is a frontier-frontier " +
		"pair, checked structurally by the view package's tests."
	return t
}
