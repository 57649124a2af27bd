// Command experiments runs the full reproduction suite — one experiment per
// artifact of the paper's index in DESIGN.md — and prints the result tables
// as markdown (the content recorded in EXPERIMENTS.md).
//
// Usage:
//
//	experiments [-run e04] [-list] [-shards N] [-workers N]
//	            [-timeout 5m] [-deadline 2026-08-07T17:30:00Z]
//	            [-metrics-json out.json] [-trace trace.json] [-progress] [-serve addr]
//	            [-faults spec] [-crash spec] [-seed N]
//
// -metrics-json writes a run manifest (schema docs/run-manifest.schema.json)
// with one counter/gauge/histogram snapshot per pipeline metric; -progress
// prints periodic phase lines with ETA to stderr; -serve exposes the live
// telemetry plane, including net/http/pprof and an expvar view of the
// metrics.
//
// -faults/-crash/-seed override the chaos experiment's (E17) pinned fault
// plans with a user-chosen deterministic plan, e.g.
//
//	experiments -run e17 -faults drop=0.3,reorder -seed 11
//
// -timeout/-deadline bound the whole suite: when either fires, the current
// experiment stops at its next shard/instance checkpoint, no further
// experiments dispatch, and the command exits with code 2. Dispatch lives
// in internal/engine; this binary only parses flags.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"

	"hidinglcp/internal/cli"
	"hidinglcp/internal/engine"
	"hidinglcp/internal/experiments"
	"hidinglcp/internal/obs"
)

func main() {
	runID := flag.String("run", "", "run a single experiment by ID, case/zero-insensitive (e.g. e04)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	var shards, workers int
	flag.Var((*cli.Count)(&shards), "shards", "shard `count` for the parallel search/build phases (0 = 4 per worker)")
	flag.Var((*cli.Count)(&workers), "workers", "worker `count` for the parallel search/build phases (0 = GOMAXPROCS)")
	obsFlags := cli.RegisterObsFlags()
	faultFlags := cli.RegisterFaultFlags()
	runFlags := cli.RegisterRunFlags()
	flag.Parse()

	experiments.SetParallelism(shards, workers)
	plan, err := faultFlags.Plan()
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	experiments.SetFaultPlan(plan)
	sel := engine.NormalizeExperimentID(*runID)
	ctx, stop, err := runFlags.Context()
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	defer stop()

	sc, manifest, finish := obsFlags.Setup("experiments", os.Args[1:])
	manifest.SetConfig("shards", strconv.Itoa(shards))
	manifest.SetConfig("workers", strconv.Itoa(workers))
	if sel != "" {
		manifest.SetConfig("experiment", sel)
	}
	if plan.Active() {
		manifest.SetConfig("faults", plan.String())
	}
	experiments.SetScope(sc)

	if err := finish(run(ctx, sc, engine.Default(), sel, *list)); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		if errors.Is(err, engine.ErrCancelled) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run dispatches the suite through the engine, streaming each finished
// table as markdown; kept separate from main so the tests can drive it
// without flag parsing.
func run(ctx context.Context, sc obs.Scope, reg *engine.Registry, only string, list bool) error {
	if list {
		for _, r := range reg.Experiments() {
			fmt.Printf("%-4s %s\n", r.ID, r.Name)
		}
		return nil
	}
	job := reg.ExperimentsJob(engine.ExperimentsConfig{
		Only: only,
		Emit: func(t experiments.Table) { fmt.Println(t.Render()) },
	})
	return engine.Runner{Scope: sc}.Run(ctx, job)
}
