package experiments

import (
	"context"
	"sync"
	"sync/atomic"

	"hidinglcp/internal/cancel"
	"hidinglcp/internal/faults"
	"hidinglcp/internal/obs"
)

// parallelism holds the shard/worker counts the experiment drivers pass to
// the sharded search and construction primitives. Zero values select the
// library defaults (4 shards per worker, GOMAXPROCS workers). Every
// parallelized driver is bit-identical to its sequential run at any
// setting, so this only affects wall-clock time, never table contents.
var parallelism = struct {
	mu      sync.Mutex
	shards  int
	workers int
}{}

// SetParallelism configures the shard and worker counts used by the
// experiment drivers (cmd/experiments -shards/-workers).
func SetParallelism(shards, workers int) {
	parallelism.mu.Lock()
	defer parallelism.mu.Unlock()
	parallelism.shards = shards
	parallelism.workers = workers
}

func parShardsWorkers() (int, int) {
	parallelism.mu.Lock()
	defer parallelism.mu.Unlock()
	return parallelism.shards, parallelism.workers
}

// obsScope holds the observability scope the experiment drivers report
// into. The zero Scope (the default) makes every instrument call a no-op,
// and a live scope never changes table contents — only what is measured
// alongside them (pinned by cmd/experiments' golden test).
var obsScope = struct {
	mu sync.Mutex
	sc obs.Scope
}{}

// SetScope configures the observability scope used by the experiment
// drivers (cmd/experiments -metrics-json/-trace/-progress).
func SetScope(sc obs.Scope) {
	obsScope.mu.Lock()
	defer obsScope.mu.Unlock()
	obsScope.sc = sc
}

func scope() obs.Scope {
	obsScope.mu.Lock()
	defer obsScope.mu.Unlock()
	return obsScope.sc
}

// faultPlan holds the fault-injection plan the chaos experiment (E17)
// substitutes for its pinned per-row plans when the user passes
// cmd/experiments -faults/-crash/-seed. Unlike parallelism and the scope,
// an active plan DOES change table contents — deterministically per
// (seed, plan) — so the golden comparison against EXPERIMENTS.md only
// applies to the default (inactive) configuration.
var faultPlan = struct {
	mu   sync.Mutex
	plan faults.Plan
}{}

// SetFaultPlan configures the fault plan used by the chaos experiment
// drivers (cmd/experiments -faults/-crash/-seed).
func SetFaultPlan(p faults.Plan) {
	faultPlan.mu.Lock()
	defer faultPlan.mu.Unlock()
	faultPlan.plan = p
}

func configuredFaultPlan() (faults.Plan, bool) {
	faultPlan.mu.Lock()
	defer faultPlan.mu.Unlock()
	return faultPlan.plan, faultPlan.plan.Active()
}

// parallelEach runs fn(0..n-1) on the configured number of workers. fn must
// be safe for concurrent calls on distinct indices; any aggregation across
// indices is the caller's job and must be order-insensitive (or sorted
// afterwards) to keep experiment tables deterministic.
//
// When ctx fires, no further indices are claimed (items already running
// finish), the pool drains, and the error wraps context.Cause(ctx). A nil
// ctx is the never-cancelled context, and the return is then always nil.
func parallelEach(ctx context.Context, n int, fn func(i int)) error {
	_, workers := parShardsWorkers()
	_, workers = cancel.Workers(n, workers, 1)
	defer scope().Counter("experiments.parallel_each.items").Add(int64(n))
	var aborted atomic.Bool
	cancel.Each(ctx, &aborted, n, workers, func(_, i int) bool {
		fn(i)
		return true
	})
	return cancel.Err(ctx, "experiment item sweep")
}
