// Package engine is the dispatch layer between the CLIs and the pipelines:
// one Registry naming every scheme, canonical family, and experiment, and
// one Runner owning job execution — span, counters, and the translation of
// context cancellation into ErrCancelled. The three binaries (cmd/lcpcheck,
// cmd/nbhdgraph, cmd/experiments) are thin flag-parsing wrappers over this
// package; nothing below it dispatches on scheme or experiment names.
//
// Cancellation contract: every job threads its context into the parallel
// primitives (nbhd.BuildShardedCtx, core.ExhaustiveStrongSoundnessParallelCtx,
// sim.RunSchemeFaultsCtx, the experiment drivers), which stop at their next
// shard/instance/round checkpoint. A job interrupted this way returns an
// error satisfying errors.Is(err, ErrCancelled) — and also errors.Is against
// context.Canceled or context.DeadlineExceeded, whichever fired — while a
// context that never fires leaves every output bit-identical to the
// context-free run.
package engine

import (
	"context"
	"errors"
	"fmt"

	"hidinglcp/internal/cancel"
	"hidinglcp/internal/obs"
)

// ErrCancelled tags every error a Job returns because its context fired.
// CLIs test for it with errors.Is and conventionally exit with code 2.
var ErrCancelled = errors.New("job cancelled")

// Job is one named unit of pipeline work the Runner can execute. Run
// receives the job's context (nil = never cancelled, see internal/cancel)
// and the scope to report into.
type Job struct {
	// Name identifies the job in spans, counters, and error messages.
	Name string
	// Run does the work. It should return promptly after ctx fires —
	// every pipeline primitive it calls stops at its next checkpoint.
	Run func(ctx context.Context, sc obs.Scope) error
}

// Runner executes Jobs against an observability scope. The zero Runner is
// valid: it runs jobs with no instrumentation.
type Runner struct {
	// Scope receives the job span (with its outcome attribute) and the
	// engine.jobs.* counters. The zero Scope is a no-op.
	Scope obs.Scope
}

// Run executes the job under ctx and returns its error, re-tagged with
// ErrCancelled when the context caused it. Counters: engine.jobs.started
// always; then exactly one of engine.jobs.completed, engine.jobs.failed,
// or engine.jobs.cancelled.
func (r Runner) Run(ctx context.Context, job Job) error {
	sc := r.Scope
	sc.Counter("engine.jobs.started").Inc()
	span := sc.Span("engine.job")
	span.SetAttr("job", job.Name)
	defer span.End()

	err := job.Run(ctx, sc)
	switch {
	case err == nil:
		sc.Counter("engine.jobs.completed").Inc()
		return nil
	case cancel.Err(ctx, job.Name) != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		sc.Counter("engine.jobs.cancelled").Inc()
		span.SetAttr("outcome", "cancelled")
		if errors.Is(err, ErrCancelled) {
			return err
		}
		// Double-wrap: errors.Is finds both ErrCancelled and the
		// underlying context cause.
		return fmt.Errorf("%w: %s: %w", ErrCancelled, job.Name, err)
	default:
		sc.Counter("engine.jobs.failed").Inc()
		span.SetAttr("outcome", "failed")
		return err
	}
}
