package nbhd

import (
	"context"
	"fmt"

	"hidinglcp/internal/cancel"
	"hidinglcp/internal/core"
	"hidinglcp/internal/obs"
	"hidinglcp/internal/view"
)

// BuildShardedCtx runs the Lemma 3.1 construction over the instances se
// produces, using decoder d to determine acceptance; views are anonymized
// before keying iff d is anonymous. The instance space splits into `shards`
// disjoint sub-enumerators claimed work-stealing-style by `workers`
// goroutines, each accumulating a private builder; the builders merge
// deterministically (set union over shared interner handles, then canonical
// key-sorted node order). There is no producer goroutine and no channel on
// the hot path — each worker enumerates its own shards — which is what lets
// the construction scale past the single-producer bound measured in
// DESIGN.md Section 4.
//
// All workers share one view.Interner and one core.MemoDecoder, so a view
// class enumerated by several shards is canonicalized into one handle and
// pays for exactly one decoder invocation across the whole build.
//
// shards <= 0 selects 4 per worker; workers <= 0 selects GOMAXPROCS. The
// output is bit-identical for every shard/worker count (property-tested in
// shard_test.go); shards = workers = 1 is the sequential construction, since
// Shards(1) is se.Sequential(). When enumeration fails, the error is, for a
// fixed shard count, the lowest-numbered failing shard's (ForEachShardCtx).
//
// Cancellation is cooperative: when ctx fires, every worker stops at its
// next per-instance checkpoint, the pool drains before the call returns
// (no goroutine outlives it — pinned by TestProbeBuildShardedCancel in
// internal/sanitize), and the error wraps
// context.Cause(ctx); no partial graph is returned. A nil ctx is the
// never-cancelled context (internal/cancel); a live one adds one watcher
// goroutine and nothing to the per-instance hot path.
//
// Instrumentation is barrier-harvested: each worker's builder keeps plain
// per-goroutine tallies that are summed into sc's counters only after every
// worker has finished, and the shared interner/memo-decoder statistics are
// read once at the end. Nothing atomic is added to the per-instance hot
// path, which is how the instrumented build stays within the <2% overhead
// budget pinned by BenchmarkBuildShardedObs. A zero Scope makes every
// instrument call a no-op.
//
// Counters recorded (see DESIGN.md Section 8 for the full taxonomy):
// nbhd.instances, nbhd.views.extracted (every view of every absorbed
// instance), nbhd.templates.built, nbhd.intern.hits/misses (which sum to
// nbhd.views.extracted), nbhd.decode.calls, nbhd.decode.memo_hits,
// nbhd.decode.inner, nbhd.shards.done/stolen, plus the nbhd.intern.classes
// and nbhd.views.accepting gauges and the nbhd.build.duration_ns histogram.
func BuildShardedCtx(ctx context.Context, sc obs.Scope, d core.Decoder, se ShardedEnumerator, shards, workers int) (*NGraph, error) {
	shards, workers = cancel.Workers(shards, workers, shardsPerWorker)
	start := obs.Now()
	span := sc.Span(sc.Label("nbhd.build"))
	span.SetAttr("shards", fmt.Sprint(shards))
	span.SetAttr("workers", fmt.Sprint(workers))
	defer span.End()
	sc.Prog().StartPhase(sc.Label("build"), int64(shards))
	defer sc.Prog().EndPhase()
	if sc.EventsEnabled() {
		sc.EmitSpanEvent(span, obs.LevelInfo, "nbhd.build.start",
			obs.Fi("shards", int64(shards)), obs.Fi("workers", int64(workers)))
	}

	in := view.NewInterner()
	md := core.NewMemoDecoder(d, in)
	parts := make([]*builder, workers)
	for w := range parts {
		parts[w] = newBuilder(d, md, in, "nbhd.BuildShardedCtx")
	}
	sc.Prog().SetExtra(func() string {
		return fmt.Sprintf("%d view classes", in.Len())
	})
	err := ForEachShardCtx(ctx, sc, se, shards, workers, func(w int, l core.Labeled) bool {
		parts[w].absorb(l)
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("enumerating instances: %w", err)
	}
	harvestBuildMetrics(sc, parts, in, md)
	accepting, loops, edges := mergeBuilders(parts)
	ng, err := assemble(in, accepting, loops, edges)
	if err != nil {
		return nil, err
	}
	sc.Gauge("nbhd.views.accepting").Set(int64(ng.Size()))
	sc.Histogram("nbhd.build.duration_ns").Observe(obs.Since(start))
	if sc.EventsEnabled() {
		// Counts and durations only — view contents never leave the build
		// (hiding contract; see internal/sanitize).
		sc.EmitSpanEvent(span, obs.LevelInfo, "nbhd.build.done",
			obs.Fi("classes", int64(in.Len())),
			obs.Fi("accepting", int64(ng.Size())),
			obs.Fi("duration_ns", obs.Since(start)))
	}
	return ng, nil
}

// harvestBuildMetrics folds the per-builder tallies and the shared
// interner/memo statistics into the scope. Called after every worker has
// finished, so the plain builder fields are safely visible.
func harvestBuildMetrics(sc obs.Scope, parts []*builder, in *view.Interner, md *core.MemoDecoder) {
	if !sc.Enabled() {
		return
	}
	var instances, views, templates, lookupHits int64
	for _, p := range parts {
		instances += p.nInstances
		views += p.nViews
		templates += p.nTemplatesBuilt
		lookupHits += p.nLookupHits
	}
	sc.Counter("nbhd.instances").Add(instances)
	sc.Counter("nbhd.views.extracted").Add(views)
	sc.Counter("nbhd.templates.built").Add(templates)
	// LookupKey hits count as intern hits: every view consults the
	// interner exactly once (LookupKey on a hit, InternKey on a miss), the
	// probe just avoids instantiating the view.
	hits, misses := in.Stats()
	sc.Counter("nbhd.intern.hits").Add(int64(hits) + lookupHits)
	sc.Counter("nbhd.intern.misses").Add(int64(misses))
	sc.Gauge("nbhd.intern.classes").Set(int64(in.Len()))
	// calls are builder→memo consults, at most one per class per builder.
	calls, inner := md.Stats()
	sc.Counter("nbhd.decode.calls").Add(int64(calls))
	sc.Counter("nbhd.decode.memo_hits").Add(int64(calls - inner))
	sc.Counter("nbhd.decode.inner").Add(int64(inner))
}
