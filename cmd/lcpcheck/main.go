// Command lcpcheck certifies a graph with one of the paper's schemes and
// reports per-node verdicts, certificate sizes, and — when requested — a
// hiding analysis of the instance.
//
// Usage:
//
//	lcpcheck -scheme watermelon -graph watermelon:2,4,2
//	lcpcheck -scheme degree-one -graph path:6 -verbose
//	lcpcheck -scheme shatter -graph grid:4x5 -conflicts
//	lcpcheck -scheme even-cycle -graph cycle:12 -distributed
//	lcpcheck -scheme union -graph cycle:8 -sanitize
//	lcpcheck -scheme even-cycle -graph cycle:12 -faults drop=0.2,trace -seed 7
//	lcpcheck -scheme trivial -graph grid:3x4 -crash 5@1 -seed 3
//	lcpcheck -scheme degree-one -graph path:5 -exhaustive -timeout 30s
//
// Graph specs: path:N, cycle:N, grid:RxC, torus:RxC, star:N, complete:N,
// binarytree:LEVELS, spider:a,b,c, watermelon:l1,l2,..., petersen.
//
// Fault injection (-faults / -crash / -seed) runs the scheme through the
// message-passing simulator under a deterministic fault schedule: the same
// seed replays the identical run, bit for bit. Faulty runs report per-node
// verdicts (accept / reject / crashed) and a fault summary instead of
// failing on non-unanimity.
//
// -timeout / -deadline bound the whole run: when either fires, the
// pipelines stop at their next shard/instance/round checkpoint and the
// command exits with code 2. The pipeline itself lives in internal/engine;
// this binary only parses flags.
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
	cfg := engine.CheckConfig{Out: os.Stdout}
	flag.StringVar(&cfg.Scheme, "scheme", "trivial", "scheme to run (lcpcheck -scheme help lists them)")
	flag.StringVar(&cfg.Graph, "graph", "path:5", "graph specification (see command doc)")
	flag.BoolVar(&cfg.Verbose, "verbose", false, "print per-node certificates and verdicts")
	flag.BoolVar(&cfg.Conflicts, "conflicts", false, "compute the hidden-fraction conflict report")
	flag.BoolVar(&cfg.Distributed, "distributed", false, "verify via the message-passing simulator")
	flag.BoolVar(&cfg.Sanitize, "sanitize", false, "re-run every decoder decision under the determinism sanitizer")
	flag.BoolVar(&cfg.Exhaustive, "exhaustive", false, "exhaustively search all labelings of the instance for strong-soundness violations")
	flag.Var((*cli.Count)(&cfg.Shards), "shards", "shard `count` for the exhaustive search (0 = 4 per worker)")
	flag.Var((*cli.Count)(&cfg.Workers), "workers", "worker `count` for the exhaustive search (0 = GOMAXPROCS)")
	obsFlags := cli.RegisterObsFlags()
	faultFlags := cli.RegisterFaultFlags()
	runFlags := cli.RegisterRunFlags()
	flag.Parse()

	reg := engine.Default()
	if cfg.Scheme == "help" {
		for _, n := range reg.SchemeNames() {
			fmt.Println(n)
		}
		return
	}
	plan, err := faultFlags.Plan()
	if err != nil {
		fatal(err)
	}
	cfg.Plan = plan
	ctx, stop, err := runFlags.Context()
	if err != nil {
		fatal(err)
	}
	defer stop()
	sc, manifest, finish := obsFlags.Setup("lcpcheck", os.Args[1:])
	manifest.SetConfig("scheme", cfg.Scheme)
	manifest.SetConfig("graph", cfg.Graph)
	manifest.SetConfig("shards", strconv.Itoa(cfg.Shards))
	manifest.SetConfig("workers", strconv.Itoa(cfg.Workers))
	if plan.Active() {
		manifest.SetConfig("faults", plan.String())
	}
	if err := finish(run(ctx, sc, reg, cfg)); err != nil {
		exit(err)
	}
}

// run dispatches the check pipeline through the engine; kept separate from
// main so the tests can drive it without flag parsing.
func run(ctx context.Context, sc obs.Scope, reg *engine.Registry, cfg engine.CheckConfig) error {
	return engine.Runner{Scope: sc}.Run(ctx, reg.CheckJob(cfg))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "lcpcheck: %v\n", err)
	os.Exit(1)
}

// exit reports the run error: exit code 2 for a cancelled run (timeout or
// deadline hit), 1 for everything else.
func exit(err error) {
	fmt.Fprintf(os.Stderr, "lcpcheck: %v\n", err)
	if errors.Is(err, engine.ErrCancelled) {
		os.Exit(2)
	}
	os.Exit(1)
}
