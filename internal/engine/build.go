package engine

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"

	"hidinglcp/internal/nbhd"
	"hidinglcp/internal/obs"
)

// BuildConfig parameterizes the neighborhood-graph pipeline behind
// cmd/nbhdgraph: build (a slice of) the accepting neighborhood graph
// V(D, n) of Section 3, report its size and 2-colorability, print any odd
// cycle (the Lemma 3.2 hiding witness), and optionally emit DOT.
type BuildConfig struct {
	// Scheme is the registry identifier of the scheme.
	Scheme string
	// Graphs optionally lists comma-separated graph specs for a
	// prover-labeled custom family ("" = the scheme's canonical hiding
	// family).
	Graphs string
	// DotPath writes the neighborhood graph in DOT format to this file
	// ("" = off).
	DotPath string
	// Shards and Workers configure the parallel build (0 = defaults).
	Shards, Workers int
	// Out receives the report (nil = io.Discard).
	Out io.Writer
}

// BuildJob builds the nbhdgraph pipeline as an engine Job.
func (r *Registry) BuildJob(cfg BuildConfig) Job {
	return Job{
		Name: "nbhdgraph:" + cfg.Scheme,
		Run: func(ctx context.Context, sc obs.Scope) error {
			return r.runBuild(ctx, sc, cfg)
		},
	}
}

func (r *Registry) runBuild(ctx context.Context, sc obs.Scope, cfg BuildConfig) error {
	out := cfg.Out
	if out == nil {
		out = io.Discard
	}
	sc = sc.Named("scheme=" + cfg.Scheme)
	s, err := r.Scheme(cfg.Scheme)
	if err != nil {
		return err
	}
	enum, desc, err := r.Family(s, cfg.Scheme, cfg.Graphs)
	if err != nil {
		return err
	}
	ng, err := nbhd.BuildShardedCtx(ctx, sc, s.Decoder, enum, cfg.Shards, cfg.Workers)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "scheme:  %s\n", s.Name)
	fmt.Fprintf(out, "family:  %s\n", desc)
	fmt.Fprintf(out, "views:   %d accepting\n", ng.Size())
	fmt.Fprintf(out, "edges:   %d (+%d self-loops)\n", ng.EdgeCount(), ng.LoopCount())
	fmt.Fprintf(out, "2-colorable: %v\n", ng.IsKColorable(2))
	if girth := ng.OddGirth(); girth > 0 {
		fmt.Fprintf(out, "odd cycle: shortest has length %d -> the scheme is HIDING at this size (Lemma 3.2)\n", girth)
	} else {
		fmt.Fprintf(out, "no odd cycle in this slice -> an extraction decoder exists for it (Lemma 3.2)\n")
	}
	if cfg.DotPath != "" {
		if err := writeDOT(ng, cfg.DotPath); err != nil {
			return err
		}
		fmt.Fprintf(out, "DOT written to %s\n", cfg.DotPath)
	}
	return nil
}

// writeDOT renders the neighborhood graph in DOT format. Node labels carry
// only view indices and sizes — never certificate contents (hiding
// contract).
func writeDOT(ng *nbhd.NGraph, path string) error {
	var b strings.Builder
	b.WriteString("graph V {\n")
	for i := 0; i < ng.Size(); i++ {
		fmt.Fprintf(&b, "  v%d [label=%q];\n", i, fmt.Sprintf("view %d (n=%d)", i, ng.ViewAt(i).N()))
		if ng.HasLoop(i) {
			fmt.Fprintf(&b, "  v%d -- v%d;\n", i, i)
		}
	}
	for _, e := range ng.Graph().Edges() {
		fmt.Fprintf(&b, "  v%d -- v%d;\n", e[0], e[1])
	}
	b.WriteString("}\n")
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
