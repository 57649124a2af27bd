// Quickstart: certify that a watermelon graph is 2-colorable WITHOUT
// revealing a 2-coloring (Theorem 1.4 of the paper).
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"hidinglcp/internal/core"
	"hidinglcp/internal/decoders"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/nbhd"
	"hidinglcp/internal/obs"
)

func main() {
	// A watermelon graph: two endpoints joined by three internally disjoint
	// paths with 2, 4, and 2 edges. All path lengths share a parity, so the
	// graph is bipartite.
	g := graph.MustWatermelon([]int{2, 4, 2})
	fmt.Printf("instance: %v (bipartite: %v)\n", g, g.IsBipartite())

	// Wrap it as a network instance: default ports, sequential identifiers.
	inst := core.NewInstance(g)

	// The prover assigns certificates: a proper 2-EDGE-coloring of each
	// path plus the endpoint identifiers — never a node coloring.
	scheme := decoders.Watermelon()
	labels, err := scheme.Prover.Certify(inst)
	if err != nil {
		log.Fatalf("prover: %v", err)
	}
	for v, l := range labels {
		// Printing the certificates is this example's point: the reader sees
		// path-structure fields and endpoint identifiers, never a color.
		//lint:ignore certflow the example deliberately shows raw certificates to demonstrate what they do (and do not) contain
		fmt.Printf("  node %d: %s\n", v, l)
	}

	// Every node of the distributed verifier accepts.
	labeled := core.MustNewLabeled(inst, labels)
	outs, err := core.Run(scheme.Decoder, labeled)
	if err != nil {
		log.Fatal(err)
	}
	allAccept := true
	for _, ok := range outs {
		allAccept = allAccept && ok
	}
	fmt.Printf("all nodes accept: %v\n", allAccept)
	fmt.Printf("largest certificate: %d bits (O(log n), Theorem 1.4)\n", scheme.MaxLabelBits(labels))

	// And yet the 2-coloring is hidden: the accepting neighborhood graph
	// built from the paper's two-identifier-assignment construction
	// contains an odd cycle, so by Lemma 3.2 NO local algorithm can extract
	// a proper 2-coloring from these certificates on every instance.
	l1, l2, err := decoders.WatermelonHidingPair()
	if err != nil {
		log.Fatal(err)
	}
	ng, err := nbhd.BuildShardedCtx(context.Background(), obs.Scope{}, scheme.Decoder, nbhd.ShardedFromLabeled(l1, l2), 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	cyc := ng.OddCycle()
	fmt.Printf("odd cycle of views (hiding witness): length %d\n", len(cyc))
	if _, err := nbhd.NewExtractor(ng, 2, false); err != nil {
		fmt.Printf("extraction decoder cannot be built: %v\n", err)
	}
}
