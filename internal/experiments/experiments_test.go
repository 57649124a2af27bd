package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// TestAllExperiments runs the full experiment suite and fails on any
// experiment error — this is the repository's one-shot reproduction check.
func TestAllExperiments(t *testing.T) {
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			table := r.Run(nil)
			if table.Err != nil {
				t.Fatalf("%s (%s): %v", r.ID, r.Name, table.Err)
			}
			if len(table.Rows) == 0 {
				t.Fatalf("%s produced no rows", r.ID)
			}
			out := table.Render()
			if !strings.Contains(out, table.ID) {
				t.Errorf("render missing ID header")
			}
		})
	}
}

// TestExperimentsStopOnCancelledContext: every experiment routes its
// pipelines through the context-taking entry points, so an
// already-cancelled context surfaces as the table's error instead of a
// full table.
func TestExperimentsStopOnCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, run := range []func(context.Context) Table{
		E5Union, E7Watermelon, E8Extraction, E9Realize, E13Simulator, E15KColoring,
	} {
		table := run(ctx)
		if !errors.Is(table.Err, context.Canceled) {
			t.Errorf("%s: Err = %v, want context.Canceled", table.ID, table.Err)
		}
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{ID: "EX", Title: "demo", Columns: []string{"a", "b"}}
	tb.AddRow(1, "x")
	tb.Notes = "note"
	out := tb.Render()
	for _, want := range []string{"### EX — demo", "| a | b |", "| 1 | x |", "note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestRunnerIndexComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, r := range All() {
		if ids[r.ID] {
			t.Errorf("duplicate experiment ID %s", r.ID)
		}
		ids[r.ID] = true
	}
	if len(ids) != 17 {
		t.Errorf("got %d experiments, want 17", len(ids))
	}
}
