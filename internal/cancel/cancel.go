// Package cancel is the cooperative-cancellation primitive and the one
// work-claiming pool shared by the pipelines (nbhd.ForEachShardCtx, the
// core soundness sweep and fuzzer, the experiment item sweep;
// sim.GatherFaultsCtx uses Watch alone). The pipelines stop their workers
// through a plain atomic flag checked at shard/instance/round checkpoints;
// Watch bridges a context.Context onto such a flag without adding anything
// to the hot path: a single watcher goroutine arms the flag when the
// context fires and is released when the pipeline finishes. Each is the
// claim loop every pool runs on, Workers resolves its shard and worker
// counts, and First keeps the lowest-index error, so a pool's answer does
// not depend on which worker found it first.
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
	"runtime"
	"sync"
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

// Each runs fn(w, i) for every i in [0, n) on workers goroutines, w being
// the goroutine's index in [0, workers). The goroutines claim indices in
// increasing order from one shared counter (work stealing), so calls with
// the same w are sequential while calls with different w are concurrent.
// A goroutine stops claiming once fn returns false or stop is set; stop is
// armed by Watch(ctx, stop) for the duration of the call, and a false fn
// return stops only its own goroutine (fn sets stop to halt all of them).
// Each returns after every goroutine has finished, so results fn wrote
// are visible to the caller and no goroutine outlives the call.
func Each(ctx context.Context, stop *atomic.Bool, n, workers int, fn func(w, i int) bool) {
	release := Watch(ctx, stop)
	defer release()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || stop.Load() || !fn(w, i) {
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// Workers resolves a pool's shard and worker counts: workers <= 0 selects
// GOMAXPROCS, shards <= 0 selects perWorker shards per worker, and workers
// never exceeds shards.
func Workers(shards, workers, perWorker int) (int, int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if shards <= 0 {
		shards = perWorker * workers
	}
	return shards, min(workers, shards)
}

// First keeps the error offered at the lowest index, so a pool reports
// the failure a sequential run would have met first, whichever worker
// found it. The zero value holds no error; it is safe for concurrent use.
type First struct {
	// inv is the complement of the kept index, so the zero value reads
	// as math.MaxUint64 (nothing kept) through Best.
	inv atomic.Uint64
	mu  sync.Mutex
	err error
}

// Offer keeps err if i is below every index offered so far.
func (f *First) Offer(i uint64, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if i < f.Best() {
		f.inv.Store(^i)
		f.err = err
	}
}

// Best returns the lowest index offered so far, or math.MaxUint64 before
// any offer. It is one atomic load, cheap enough for per-item pruning.
func (f *First) Best() uint64 { return ^f.inv.Load() }

// Err returns the error kept by Offer, or nil.
func (f *First) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}
