// Command nbhdgraph builds (a slice of) the accepting neighborhood graph
// V(D, n) of Section 3 for one of the paper's schemes over a graph family,
// reports its size and 2-colorability, prints any odd cycle (the Lemma 3.2
// hiding witness), and optionally emits the graph in DOT format.
//
// Usage:
//
//	nbhdgraph -scheme degree-one                      # exhaustive δ=1 slice, n <= 4
//	nbhdgraph -scheme even-cycle                      # all C4/C6 yes-instances
//	nbhdgraph -scheme shatter                         # the paper's P8/P7 pair
//	nbhdgraph -scheme watermelon -dot out.dot         # P8 two-identifier pair
//	nbhdgraph -scheme trivial -graphs path:3,cycle:4  # prover-labeled custom family
//	nbhdgraph -scheme degree-one -timeout 1m          # bounded build, exit 2 on expiry
//
// The pipeline lives in internal/engine; this binary only parses flags.
// -timeout / -deadline cancel the build at its next per-instance
// checkpoint and exit with code 2.
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
	"hidinglcp/internal/obs"
)

func main() {
	cfg := engine.BuildConfig{Out: os.Stdout}
	flag.StringVar(&cfg.Scheme, "scheme", "degree-one", "scheme whose neighborhood graph to build")
	flag.StringVar(&cfg.Graphs, "graphs", "", "comma-separated graph specs for a prover-labeled custom family (default: the scheme's canonical hiding family)")
	flag.StringVar(&cfg.DotPath, "dot", "", "write the neighborhood graph in DOT format to this file")
	flag.Var((*cli.Count)(&cfg.Shards), "shards", "shard `count` for the parallel build (0 = 4 per worker)")
	flag.Var((*cli.Count)(&cfg.Workers), "workers", "worker `count` for the parallel build (0 = GOMAXPROCS)")
	obsFlags := cli.RegisterObsFlags()
	runFlags := cli.RegisterRunFlags()
	flag.Parse()

	ctx, stop, err := runFlags.Context()
	if err != nil {
		fmt.Fprintf(os.Stderr, "nbhdgraph: %v\n", err)
		os.Exit(1)
	}
	defer stop()
	sc, manifest, finish := obsFlags.Setup("nbhdgraph", os.Args[1:])
	manifest.SetConfig("scheme", cfg.Scheme)
	manifest.SetConfig("shards", strconv.Itoa(cfg.Shards))
	manifest.SetConfig("workers", strconv.Itoa(cfg.Workers))
	if err := finish(run(ctx, sc, engine.Default(), cfg)); err != nil {
		fmt.Fprintf(os.Stderr, "nbhdgraph: %v\n", err)
		if errors.Is(err, engine.ErrCancelled) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run dispatches the build pipeline through the engine; kept separate from
// main so the tests can drive it without flag parsing.
func run(ctx context.Context, sc obs.Scope, reg *engine.Registry, cfg engine.BuildConfig) error {
	return engine.Runner{Scope: sc}.Run(ctx, reg.BuildJob(cfg))
}
