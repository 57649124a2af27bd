package engine

import (
	"context"
	"fmt"
	"io"

	"hidinglcp/internal/cli"
	"hidinglcp/internal/core"
	"hidinglcp/internal/faults"
	"hidinglcp/internal/nbhd"
	"hidinglcp/internal/obs"
	"hidinglcp/internal/sanitize"
	"hidinglcp/internal/sim"
)

// CheckConfig parameterizes the certify→run→report pipeline behind
// cmd/lcpcheck.
type CheckConfig struct {
	// Scheme is the registry identifier of the scheme to run.
	Scheme string
	// Graph is the instance specification (cli.ParseGraph syntax).
	Graph string
	// Plan is the fault-injection plan; an active plan routes the run
	// through the fault-injected simulator.
	Plan faults.Plan
	// Verbose prints per-node certificates and verdicts.
	Verbose bool
	// Conflicts computes the hidden-fraction conflict report.
	Conflicts bool
	// Distributed verifies via the message-passing simulator.
	Distributed bool
	// Sanitize re-runs every decoder decision under the determinism
	// sanitizer.
	Sanitize bool
	// Exhaustive sweeps all labelings of the instance for
	// strong-soundness violations.
	Exhaustive bool
	// Shards and Workers configure the parallel sweep (0 = defaults).
	Shards, Workers int
	// Out receives the report (nil = io.Discard).
	Out io.Writer
}

// maxExhaustiveLabelings bounds the |alphabet|^n search space Exhaustive
// accepts; beyond this the sweep runs for hours and the caller almost
// certainly mistyped the graph size.
const maxExhaustiveLabelings = 20_000_000

// CheckJob builds the lcpcheck pipeline as an engine Job: resolve the
// scheme, certify the instance, evaluate every node (centralized,
// distributed, or fault-injected), and report verdicts, certificate sizes,
// and the optional conflict/exhaustive/sanitizer analyses.
func (r *Registry) CheckJob(cfg CheckConfig) Job {
	return Job{
		Name: "check:" + cfg.Scheme,
		Run: func(ctx context.Context, sc obs.Scope) error {
			return r.runCheck(ctx, sc, cfg)
		},
	}
}

func (r *Registry) runCheck(ctx context.Context, sc obs.Scope, cfg CheckConfig) error {
	out := cfg.Out
	if out == nil {
		out = io.Discard
	}
	// Name the scope after the scheme so every progress line and span of the
	// exhaustive search says which scheme (and shard counts) it is on.
	sc = sc.Named("scheme=" + cfg.Scheme)
	s, err := r.Scheme(cfg.Scheme)
	if err != nil {
		return err
	}
	var sanResult *sanitize.Result
	if cfg.Sanitize {
		s, sanResult = sanitize.WithScheme(s, sanitize.Config{})
	}
	g, err := cli.ParseGraph(cfg.Graph)
	if err != nil {
		return err
	}
	var inst core.Instance
	if s.Decoder.Anonymous() {
		inst = core.NewAnonymousInstance(g)
	} else {
		inst = core.NewInstance(g)
	}

	if cfg.Plan.Active() {
		// Fault injection always goes through the message-passing simulator
		// (faults are scheduler events; there is nothing to inject into a
		// centralized extraction), and it degrades gracefully: per-node
		// verdicts instead of a completeness error.
		if err := cfg.Plan.Validate(g.N()); err != nil {
			return err
		}
		if err := runFaulty(ctx, sc, out, s, inst, cfg.Plan, cfg.Verbose); err != nil {
			return err
		}
		return sanitizerVerdict(out, sanResult)
	}

	labels, err := s.Prover.Certify(inst)
	if err != nil {
		return fmt.Errorf("prover rejects the instance: %w", err)
	}
	l, err := core.NewLabeled(inst, labels)
	if err != nil {
		return err
	}

	var outs []bool
	if cfg.Distributed {
		fr, err := sim.RunSchemeFaultsCtx(ctx, sc, s, inst, faults.Plan{})
		if err != nil {
			return err
		}
		outs = make([]bool, len(fr.Verdicts))
		for v, verdict := range fr.Verdicts {
			outs[v] = verdict.Accepted()
		}
		fmt.Fprintf(out, "simulator: %d rounds, %d messages, %d records\n", fr.Stats.Rounds, fr.Stats.Messages, fr.Stats.Records)
	} else {
		outs, err = core.Run(s.Decoder, l)
		if err != nil {
			return err
		}
	}

	accepts := 0
	for _, ok := range outs {
		if ok {
			accepts++
		}
	}
	fmt.Fprintf(out, "scheme %s on %v\n", s.Name, g)
	fmt.Fprintf(out, "accepting nodes: %d/%d\n", accepts, g.N())
	fmt.Fprintf(out, "max certificate: %d bits\n", s.MaxLabelBits(labels))
	if cfg.Verbose {
		for v := 0; v < g.N(); v++ {
			// The hiding adversary is the verifier-side observer, not the
			// prover operator inspecting certificates they just generated;
			// -verbose is that operator's explicit request for the raw bytes.
			//lint:ignore certflow operator-requested dump of the operator's own certificates under -verbose
			fmt.Fprintf(out, "  node %2d  accept=%-5v  cert=%s\n", v, outs[v], labels[v])
		}
	}
	if cfg.Conflicts {
		report, err := nbhd.MinExtractionConflicts(s.Decoder, l, 2)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "extraction conflicts: %d distinct views, min bad edges %d, fail fraction %.2f\n",
			report.DistinctViews, report.MinBadEdges, report.FailFraction)
	}
	if cfg.Exhaustive {
		alphabet, err := r.Alphabet(cfg.Scheme)
		if err != nil {
			return err
		}
		space := 1.0
		for i := 0; i < g.N(); i++ {
			space *= float64(len(alphabet))
		}
		if space > maxExhaustiveLabelings {
			return fmt.Errorf("exhaustive search needs %.0f labelings (%d^%d); refusing above %d — use a smaller graph",
				space, len(alphabet), g.N(), maxExhaustiveLabelings)
		}
		if err := core.ExhaustiveStrongSoundnessParallelCtx(ctx, sc, s.Decoder, s.Promise.Lang, inst, alphabet, cfg.Shards, cfg.Workers); err != nil {
			return err
		}
		fmt.Fprintf(out, "strong soundness: no violation across %.0f labelings (%d^%d)\n", space, len(alphabet), g.N())
	}
	if err := sanitizerVerdict(out, sanResult); err != nil {
		return err
	}
	if accepts != g.N() {
		return fmt.Errorf("completeness violated: %d nodes reject", g.N()-accepts)
	}
	return nil
}

// sanitizerVerdict reports the determinism sanitizer's outcome when one was
// attached (nil sanResult = sanitizer off).
func sanitizerVerdict(out io.Writer, sanResult *sanitize.Result) error {
	if sanResult == nil {
		return nil
	}
	if err := sanResult.Err(); err != nil {
		return err
	}
	fmt.Fprintf(out, "sanitizer: %d decisions probed, determinism contract holds\n", sanResult.Decisions())
	return nil
}

// runFaulty drives the scheme through the fault-injected simulator and
// reports the degraded outcome: fault summary, verdict counts, and — with
// Verbose — per-node verdicts. Non-unanimity is the expected result of a
// faulty run, not an error.
func runFaulty(ctx context.Context, sc obs.Scope, out io.Writer, s core.Scheme, inst core.Instance, plan faults.Plan, verbose bool) error {
	fr, err := sim.RunSchemeFaultsCtx(ctx, sc, s, inst, plan)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "scheme %s on %v\n", s.Name, inst.G)
	fmt.Fprintf(out, "fault plan: %s\n", plan)
	fmt.Fprintf(out, "simulator: %d rounds, %d messages, %d records\n",
		fr.Stats.Rounds, fr.Stats.Messages, fr.Stats.Records)
	fmt.Fprintf(out, "faults: %s\n", fr.Faults.Summary())
	accepted, rejected, crashed := fr.Counts()
	fmt.Fprintf(out, "verdicts: %d accept, %d reject, %d crashed\n", accepted, rejected, crashed)
	if verbose {
		for v, verdict := range fr.Verdicts {
			fmt.Fprintf(out, "  node %2d  %s\n", v, verdict)
		}
	}
	if plan.Trace {
		fmt.Fprintln(out, "schedule trace:")
		for _, line := range fr.Faults.TraceLines() {
			fmt.Fprintln(out, "  "+line)
		}
	}
	return nil
}
