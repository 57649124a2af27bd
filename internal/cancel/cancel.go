// Package cancel is the cooperative-cancellation primitive shared by the
// pipelines (nbhd.BuildShardedCtx, the core soundness sweep and fuzzer,
// sim.GatherFaultsCtx). The pipelines already stop their workers through a
// plain atomic flag checked at shard/instance/round checkpoints; this
// package bridges a context.Context onto such a flag without adding
// anything to the hot path: a single watcher goroutine arms the flag when
// the context fires and is released when the pipeline finishes.
//
// A nil context is the never-cancelled context everywhere in this package.
// Each pipeline has a single (ctx, sc, …) entry point, and a caller with no
// deadline — a benchmark, a CLI run without -timeout — passes nil rather
// than a context.Background() it would otherwise have to mint. Inside the
// engine, core, nbhd, and sim layers the ctxflow analyzer forbids both
// minting a root and passing nil: code there forwards its caller's ctx.
package cancel

import (
	"context"
	"fmt"
	"sync/atomic"
)

// Watch arms flag when ctx is cancelled. It returns a release function
// that must be called (normally deferred) once the guarded work has
// finished: it reclaims the watcher goroutine, so pipelines stay clean
// under the sanitize goroutine-leak probes. A nil ctx (or one that can
// never fire) arms nothing and returns a no-op release.
//
// If ctx is already cancelled when Watch is called, the flag is set
// synchronously before Watch returns, so a checkpoint immediately after
// Watch observes it deterministically.
func Watch(ctx context.Context, flag *atomic.Bool) (release func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	if ctx.Err() != nil {
		flag.Store(true)
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			flag.Store(true)
		case <-done:
		}
	}()
	return func() { close(done) }
}

// Err reports why ctx fired, or nil for a live (or nil) context. The
// returned error wraps context.Cause(ctx), so callers can test it with
// errors.Is(err, context.Canceled) / context.DeadlineExceeded, and the
// engine layer can re-tag it as engine.ErrCancelled.
func Err(ctx context.Context, what string) error {
	if ctx == nil {
		return nil
	}
	if ctx.Err() == nil {
		return nil
	}
	return fmt.Errorf("%s cancelled: %w", what, context.Cause(ctx))
}

// Cancelled reports whether ctx has fired. A nil ctx never has.
func Cancelled(ctx context.Context) bool {
	return ctx != nil && ctx.Err() != nil
}
