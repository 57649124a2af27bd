package cancel

import (
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

func TestStopNilContext(t *testing.T) {
	var zero Stop
	if NewStop(nil).Stopped() || zero.Stopped() {
		t.Error("a Stop without a context fired")
	}
	if Err(nil, "x") != nil {
		t.Error("nil context reported as cancelled")
	}
}

func TestStopNeverFires(t *testing.T) {
	for _, ctx := range []context.Context{context.Background(), context.TODO()} {
		if NewStop(ctx).Stopped() {
			t.Errorf("%v: a context that cannot be cancelled fired the stop", ctx)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if NewStop(ctx).Stopped() {
		t.Error("live context fired the stop")
	}
	if err := Err(ctx, "build"); err != nil {
		t.Errorf("live context Err = %v", err)
	}
}

func TestStopAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if !NewStop(ctx).Stopped() {
		t.Fatal("pre-cancelled context did not fire the stop")
	}
	err := Err(ctx, "build")
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Errorf("Err = %v, want wrapped context.Canceled", err)
	}
}

// TestStopFiresMidFlight: a cancellation is seen by the next Stopped call,
// with no waiting: nothing but the caller's own poll stands between them.
func TestStopFiresMidFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	stop := NewStop(ctx)
	if stop.Stopped() {
		t.Fatal("stop fired before cancel")
	}
	cancel()
	if !stop.Stopped() {
		t.Error("the first Stopped call after cancel did not see it")
	}
}

func TestStopSet(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var zero Stop
	for _, stop := range []*Stop{&zero, NewStop(nil), NewStop(ctx)} {
		stop.Set()
		if !stop.Stopped() {
			t.Error("Set did not fire the stop")
		}
	}
	if Err(ctx, "build") != nil {
		t.Error("Set cancelled the context")
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
			Each(&Stop{}, n, workers, func(w, i int) bool {
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
	Each(&Stop{}, n, workers, func(w, i int) bool {
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
		Each(&Stop{}, 100, workers, func(int, int) bool {
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
	var stop Stop
	Each(&stop, 1000, workers, func(_, i int) bool {
		calls.Add(1)
		if i == at {
			stop.Set()
		}
		return true
	})
	if got := calls.Load(); got < at+1 || got > at+workers {
		t.Errorf("%d calls after stop at index %d, want %d..%d", got, at, at+1, at+workers)
	}
}

// settledGoroutines waits for the goroutine count to fall back to at most
// before (a worker exits just after Each's wait sees it done) and returns
// the count.
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
	Each(NewStop(ctx), 100, 4, func(int, int) bool {
		calls.Add(1)
		return true
	})
	if got := calls.Load(); got != 0 {
		t.Errorf("pre-cancelled context: %d calls, want 0", got)
	}
	if after := settledGoroutines(before); after > before {
		t.Errorf("goroutines %d -> %d: Each left goroutines behind", before, after)
	}
}

// TestEachCancelMidFlight: every claim polls the context, so once the
// call at index at cancels it, each other worker finishes at most the one
// call it has in flight.
func TestEachCancelMidFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	before := runtime.NumGoroutine()
	const n, workers, at = 1000, 2, 3
	var calls atomic.Int32
	Each(NewStop(ctx), n, workers, func(_, i int) bool {
		calls.Add(1)
		if i == at {
			cancel()
		}
		time.Sleep(time.Millisecond)
		return true
	})
	if got := calls.Load(); got < at+1 || got > at+workers {
		t.Errorf("%d calls after a cancel at index %d, want %d..%d", got, at, at+1, at+workers)
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
		// Offer indices low..n-1 in a shuffled order from 4 goroutines.
		Each(&Stop{}, n, 4, func(_, j int) bool {
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
