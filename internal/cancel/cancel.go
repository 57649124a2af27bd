// Package cancel is the one place goroutines start, the cooperative-
// cancellation primitive, and the one work-claiming pool shared by the
// pipelines. Go starts n goroutines and returns their wait; every
// goroutine in the program's non-test code is started through it (the
// gostmt analyzer reports a go statement anywhere else): the pools below,
// obs.Progress's ticker and export.Serve's HTTP server. Each pipeline
// (nbhd.ForEachShard, the core soundness sweep and fuzzer, the experiment
// item sweep, the simulator's round loop) stops through one Stop, which
// fires when the caller's context is cancelled or a worker sets it. Its
// checkpoints poll the context's done channel themselves, so a
// cancellation is seen at the first checkpoint after it, with no watcher
// goroutine in between: per instance in the sharded enumeration, per claim
// and once per fixed block of labelings in the soundness sweep, per trial
// in the fuzzer, per item in the experiment item sweep and per round in
// the simulator. Each is the claim loop every pool runs on, Workers
// resolves its shard and worker counts, and First keeps the lowest-index
// error, so a pool's answer does not depend on which worker found it
// first.
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

// Go calls fn(i) for every i in [0, n) on n goroutines, all live at once,
// and returns a wait function that blocks until every call has returned.
// The goroutines are counted before any of them starts, so wait cannot
// return while one is still starting, and results fn wrote are visible to
// the caller once wait returns.
func Go(n int, fn func(i int)) (wait func()) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	return wg.Wait
}

// Stop is a pipeline's stop signal: it fires when the context it was made
// from is cancelled or when a worker calls Set. It keeps the context's
// done channel, never the context itself. The zero Stop fires only
// through Set.
type Stop struct {
	done <-chan struct{}
	set  atomic.Bool
}

// NewStop returns a Stop that fires when ctx is cancelled. A nil ctx, or
// one that can never be cancelled, yields a Stop that fires only through
// Set.
func NewStop(ctx context.Context) *Stop {
	if ctx == nil {
		return &Stop{}
	}
	return &Stop{done: ctx.Done()}
}

// Set fires s for every worker polling it.
func (s *Stop) Set() { s.set.Store(true) }

// Stopped reports whether s has fired: one atomic load and a receive that
// does not block (from a nil channel when there is no context), so it
// takes no lock and is cheap enough for a per-item checkpoint. A
// cancellation is seen by the first Stopped call that starts after it.
func (s *Stop) Stopped() bool {
	if s.set.Load() {
		return true
	}
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// Err reports why ctx fired, or nil for a live (or nil) context. The
// returned error wraps context.Cause(ctx), so callers can test it with
// errors.Is(err, context.Canceled) / context.DeadlineExceeded, and the
// engine layer can re-tag it as engine.ErrCancelled.
func Err(ctx context.Context, what string) error {
	if ctx == nil || ctx.Err() == nil {
		return nil
	}
	return fmt.Errorf("%s cancelled: %w", what, context.Cause(ctx))
}

// Each runs fn(w, i) for every i in [0, n) on workers goroutines, w being
// the goroutine's index in [0, workers). The goroutines claim indices in
// increasing order from one shared counter (work stealing), so calls with
// the same w are sequential while calls with different w are concurrent.
// A goroutine polls stop before every claim and stops claiming once stop
// has fired or fn returns false; a false fn return stops only its own
// goroutine (fn calls stop.Set to halt all of them). Each returns after
// every goroutine has finished, so results fn wrote are visible to the
// caller and no goroutine outlives the call. A single worker runs on the
// calling goroutine, so a sequential run starts no goroutine.
func Each(stop *Stop, n, workers int, fn func(w, i int) bool) {
	if workers == 1 {
		for i := 0; i < n && !stop.Stopped() && fn(0, i); i++ {
		}
		return
	}
	var next atomic.Int64
	Go(workers, func(w int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n || stop.Stopped() || !fn(w, i) {
				return
			}
		}
	})()
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
