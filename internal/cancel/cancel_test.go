package cancel

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWatchNilContext(t *testing.T) {
	var flag atomic.Bool
	release := Watch(nil, &flag)
	release()
	if flag.Load() {
		t.Error("nil context armed the flag")
	}
	if Err(nil, "x") != nil || Cancelled(nil) {
		t.Error("nil context reported as cancelled")
	}
}

func TestWatchNeverFires(t *testing.T) {
	var flag atomic.Bool
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	release := Watch(ctx, &flag)
	release()
	if flag.Load() {
		t.Error("live context armed the flag")
	}
	if err := Err(ctx, "build"); err != nil {
		t.Errorf("live context Err = %v", err)
	}
}

func TestWatchAlreadyCancelled(t *testing.T) {
	var flag atomic.Bool
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	release := Watch(ctx, &flag)
	defer release()
	// Pre-cancelled contexts arm synchronously: no race, no sleep needed.
	if !flag.Load() {
		t.Fatal("pre-cancelled context did not arm the flag synchronously")
	}
	err := Err(ctx, "build")
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Errorf("Err = %v, want wrapped context.Canceled", err)
	}
}

func TestWatchFiresMidFlight(t *testing.T) {
	var flag atomic.Bool
	ctx, cancel := context.WithCancel(context.Background())
	release := Watch(ctx, &flag)
	defer release()
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for !flag.Load() {
		if time.Now().After(deadline) {
			t.Fatal("flag not armed after cancellation")
		}
		time.Sleep(time.Millisecond)
	}
	if !Cancelled(ctx) {
		t.Error("Cancelled(ctx) = false after cancel")
	}
}

// inWatcher reports, from one dump of every goroutine's stack, whether
// any goroutine is still running a Watch watcher.
func inWatcher() bool {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Contains(buf[:n], []byte("internal/cancel.Watch.func"))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// enteredCtx signals entered once Done is called after Err: Watch calls
// Done then Err before starting its watcher, so the signal means the
// watcher is evaluating its select.
type enteredCtx struct {
	context.Context
	errCalled atomic.Bool
	once      sync.Once
	entered   chan struct{}
}

func (c *enteredCtx) Err() error {
	c.errCalled.Store(true)
	return c.Context.Err()
}

func (c *enteredCtx) Done() <-chan struct{} {
	if c.errCalled.Load() {
		c.once.Do(func() { close(c.entered) })
	}
	return c.Context.Done()
}

func TestWatchReleaseWaitsForWatcher(t *testing.T) {
	for _, fire := range []bool{false, true} {
		parent, cancel := context.WithCancel(context.Background())
		ctx := &enteredCtx{Context: parent, entered: make(chan struct{})}
		var flag atomic.Bool
		release := Watch(ctx, &flag)
		<-ctx.entered
		if fire {
			cancel()
		}
		release()
		// No polling: release has returned, so the watcher must be gone.
		if inWatcher() {
			t.Errorf("fire=%v: a watcher goroutine is still running after release", fire)
		}
		cancel()
	}
}

func TestGoZeroReturnsAtOnce(t *testing.T) {
	Go(0, func(int) { t.Error("Go(0) called fn") })()
}

func TestGoRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{1, 7, 100} {
		calls := make([]atomic.Int32, n)
		Go(n, func(i int) { calls[i].Add(1) })()
		for i := range calls {
			if c := calls[i].Load(); c != 1 {
				t.Errorf("n=%d: index %d ran %d times", n, i, c)
			}
		}
	}
}

// TestGoRunsAllAtOnce checks that the n calls are live together: each
// blocks until all have started, so a pool of fewer goroutines would
// deadlock.
func TestGoRunsAllAtOnce(t *testing.T) {
	const n = 64
	var started sync.WaitGroup
	started.Add(n)
	Go(n, func(int) {
		started.Done()
		started.Wait()
	})()
}

func TestGoWaitBlocksUntilEveryCallReturns(t *testing.T) {
	const n = 8
	gate := make(chan struct{})
	var returned atomic.Int32
	wait := Go(n, func(int) {
		<-gate
		returned.Add(1)
	})
	close(gate)
	wait()
	if got := returned.Load(); got != n {
		t.Errorf("wait returned after %d of %d calls", got, n)
	}
}

func TestErrCarriesDeadlineCause(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	err := Err(ctx, "sweep")
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Err = %v, want wrapped context.DeadlineExceeded", err)
	}
}

func TestEachClaimsEveryIndexOnce(t *testing.T) {
	for workers := 1; workers <= 4; workers++ {
		for _, n := range []int{0, 1, 7, 100} {
			calls := make([]atomic.Int32, n)
			var stop atomic.Bool
			Each(nil, &stop, n, workers, func(w, i int) bool {
				if w < 0 || w >= workers {
					t.Errorf("workers=%d: worker index %d out of range", workers, w)
				}
				calls[i].Add(1)
				return true
			})
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Errorf("workers=%d n=%d: index %d claimed %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestEachSameWorkerSequential checks that calls sharing a worker index
// never overlap and see increasing indices. The per-worker slices are
// written without synchronization, so under -race an overlapping call is
// also a reported race.
func TestEachSameWorkerSequential(t *testing.T) {
	const workers, n = 4, 400
	inFlight := make([]atomic.Int32, workers)
	seen := make([][]int, workers)
	var stop atomic.Bool
	Each(nil, &stop, n, workers, func(w, i int) bool {
		if inFlight[w].Add(1) != 1 {
			t.Errorf("worker %d: overlapping calls", w)
		}
		seen[w] = append(seen[w], i)
		time.Sleep(time.Microsecond)
		inFlight[w].Add(-1)
		return true
	})
	total := 0
	for w, is := range seen {
		for j := 1; j < len(is); j++ {
			if is[j] <= is[j-1] {
				t.Errorf("worker %d: index %d claimed after %d", w, is[j], is[j-1])
			}
		}
		total += len(is)
	}
	if total != n {
		t.Errorf("%d calls, want %d", total, n)
	}
}

func TestEachStopsClaimingAfterFalse(t *testing.T) {
	// A false return stops only the returning worker: with every call
	// returning false, each worker makes exactly one.
	for workers := 1; workers <= 4; workers++ {
		var calls atomic.Int32
		var stop atomic.Bool
		Each(nil, &stop, 100, workers, func(int, int) bool {
			calls.Add(1)
			return false
		})
		if got := calls.Load(); got != int32(workers) {
			t.Errorf("workers=%d: %d calls after false returns, want %d", workers, got, workers)
		}
	}
	// Setting stop halts every worker: besides the indices up to the one
	// that set it, each other worker can have at most one claim in flight.
	const workers, at = 3, 10
	var calls atomic.Int32
	var stop atomic.Bool
	Each(nil, &stop, 1000, workers, func(_, i int) bool {
		calls.Add(1)
		if i == at {
			stop.Store(true)
		}
		return true
	})
	if got := calls.Load(); got < at+1 || got > at+workers {
		t.Errorf("%d calls after stop at index %d, want %d..%d", got, at, at+1, at+workers)
	}
}

// settledGoroutines waits for the goroutine count to fall back to at most
// before (a released watcher exits asynchronously) and returns the count.
func settledGoroutines(before int) int {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

func TestEachPreCancelledClaimsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := runtime.NumGoroutine()
	var calls atomic.Int32
	var stop atomic.Bool
	Each(ctx, &stop, 100, 4, func(int, int) bool {
		calls.Add(1)
		return true
	})
	if got := calls.Load(); got != 0 {
		t.Errorf("pre-cancelled context: %d calls, want 0", got)
	}
	if !stop.Load() {
		t.Error("pre-cancelled context did not arm stop")
	}
	if after := settledGoroutines(before); after > before {
		t.Errorf("goroutines %d -> %d: Each left goroutines behind", before, after)
	}
}

func TestEachCancelMidFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	before := runtime.NumGoroutine()
	const n = 1000
	var calls atomic.Int32
	var stop atomic.Bool
	Each(ctx, &stop, n, 2, func(_, i int) bool {
		calls.Add(1)
		if i == 3 {
			cancel()
		}
		time.Sleep(time.Millisecond)
		return true
	})
	if got := calls.Load(); got >= n {
		t.Errorf("cancelled drive made all %d calls", got)
	}
	if after := settledGoroutines(before); after > before {
		t.Errorf("goroutines %d -> %d: Each left goroutines behind", before, after)
	}
}

func TestWorkersResolvesDefaults(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct {
		shards, workers, perWorker int
		wantShards, wantWorkers    int
	}{
		{8, 2, 4, 8, 2},
		{0, 2, 4, 8, 2},
		{3, 5, 4, 3, 3},
		{0, 0, 4, 4 * procs, procs},
		{5, 0, 1, 5, min(procs, 5)},
	} {
		s, w := Workers(c.shards, c.workers, c.perWorker)
		if s != c.wantShards || w != c.wantWorkers {
			t.Errorf("Workers(%d, %d, %d) = %d, %d; want %d, %d",
				c.shards, c.workers, c.perWorker, s, w, c.wantShards, c.wantWorkers)
		}
	}
}

func TestFirstZeroValue(t *testing.T) {
	var f First
	if f.Best() != math.MaxUint64 || f.Err() != nil {
		t.Errorf("zero First: Best %d, Err %v; want MaxUint64, nil", f.Best(), f.Err())
	}
	e := errors.New("only")
	f.Offer(42, e)
	if f.Best() != 42 || f.Err() != e {
		t.Errorf("after Offer(42): Best %d, Err %v", f.Best(), f.Err())
	}
	f.Offer(42, errors.New("tie"))
	f.Offer(43, errors.New("higher"))
	if f.Best() != 42 || f.Err() != e {
		t.Errorf("a tie or higher index replaced the kept error: Best %d, Err %v", f.Best(), f.Err())
	}
}

func TestFirstLowestIndexWinsUnderConcurrentOffers(t *testing.T) {
	const n = 64
	errs := make([]error, n)
	for i := range errs {
		errs[i] = fmt.Errorf("error %d", i)
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 20; round++ {
		low := uint64(rng.Intn(n / 2))
		order := rng.Perm(n)
		var f First
		var stop atomic.Bool
		// Offer indices low..n-1 in a shuffled order from 4 goroutines.
		Each(nil, &stop, n, 4, func(_, j int) bool {
			if i := uint64(order[j]); i >= low {
				f.Offer(i, errs[i])
			}
			return true
		})
		if f.Best() != low || f.Err() != errs[low] {
			t.Errorf("round %d: Best %d, Err %v; want %d, %v", round, f.Best(), f.Err(), low, errs[low])
		}
	}
}
