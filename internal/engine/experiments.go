package engine

import (
	"context"
	"fmt"

	"hidinglcp/internal/cancel"
	"hidinglcp/internal/experiments"
	"hidinglcp/internal/obs"
)

// ExperimentsConfig parameterizes the reproduction-suite pipeline behind
// cmd/experiments.
type ExperimentsConfig struct {
	// Only restricts the run to one canonical experiment ID ("" = all).
	Only string
	// Emit receives each finished table, in index order (nil = tables are
	// dropped). cmd/experiments streams markdown renders through it.
	Emit func(experiments.Table)
}

// ExperimentsJob builds the experiment-suite pipeline as an engine Job:
// dispatch every selected runner (each threads the context into its own
// parallel phases) and fail if any experiment errored. Cancellation stops
// the suite at the next experiment boundary — or inside the current
// experiment at its next shard/instance checkpoint — and the partially
// complete suite reports the cancellation, not a table-failure error.
func (r *Registry) ExperimentsJob(cfg ExperimentsConfig) Job {
	name := "experiments"
	if cfg.Only != "" {
		name += ":" + cfg.Only
	}
	return Job{
		Name: name,
		Run: func(ctx context.Context, sc obs.Scope) error {
			return r.runExperiments(ctx, cfg)
		},
	}
}

func (r *Registry) runExperiments(ctx context.Context, cfg ExperimentsConfig) error {
	ran := 0
	var failed []string
	for _, runner := range r.experiments {
		if cfg.Only != "" && runner.ID != cfg.Only {
			continue
		}
		// Experiment-boundary checkpoint: a context that fired mid-suite
		// stops before dispatching the next experiment.
		if err := cancel.Err(ctx, "experiment suite"); err != nil {
			return err
		}
		ran++
		table := runner.Run(ctx)
		if cfg.Emit != nil {
			cfg.Emit(table)
		}
		if table.Err != nil {
			// A cancellation that fired inside the experiment surfaces as
			// the table's Err; report it as the suite's cancellation
			// rather than an experiment failure.
			if cancel.Err(ctx, "experiment suite") != nil {
				return fmt.Errorf("experiment %s: %w", runner.ID, table.Err)
			}
			failed = append(failed, runner.ID)
		}
	}
	if ran == 0 {
		return fmt.Errorf("unknown experiment %q (use -list)", cfg.Only)
	}
	if len(failed) > 0 {
		return fmt.Errorf("experiments failed: %v", failed)
	}
	return nil
}
