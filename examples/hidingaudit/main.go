// Hiding audit: for each certification scheme, attempt to EXTRACT a proper
// 2-coloring from its certificates via the Lemma 3.2 extraction decoder,
// and report where extraction succeeds (the revealing baseline) and where
// it provably fails (the paper's hiding schemes).
//
// Run with: go run ./examples/hidingaudit
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
	fmt.Println("=== Revealing baseline: Trivial(2) ===")
	auditTrivial()

	fmt.Println()
	fmt.Println("=== Hiding schemes ===")
	auditHiding()
}

func auditTrivial() {
	s := decoders.Trivial(2)
	// Exhaustive slice of V(D, 4) over connected bipartite instances.
	var insts []core.Instance
	for n := 2; n <= 4; n++ {
		graph.EnumConnectedGraphs(n, func(g *graph.Graph) bool {
			if g.IsBipartite() {
				gc := g.Clone()
				graph.EnumPorts(gc, func(pt *graph.Ports) bool {
					insts = append(insts, core.Instance{G: gc, Prt: pt, NBound: 4})
					return true
				})
			}
			return true
		})
	}
	ng, err := nbhd.BuildShardedCtx(context.Background(), obs.Scope{}, s.Decoder, nbhd.ShardedAllLabelings([]string{"0", "1"}, insts...), 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("V(D,4): %d views, 2-colorable: %v\n", ng.Size(), ng.IsKColorable(2))

	ex, err := nbhd.NewExtractor(ng, 2, true)
	if err != nil {
		log.Fatalf("extractor should exist for the revealing scheme: %v", err)
	}
	target := core.NewAnonymousInstance(graph.MustCycle(4))
	labels, err := s.Prover.Certify(target)
	if err != nil {
		log.Fatal(err)
	}
	witness, err := ex.ExtractWitness(core.MustNewLabeled(target, labels), 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("extracted coloring of C4: %v (proper: %v)\n", witness, target.G.IsProperColoring(witness))
	fmt.Println("-> the trivial certificate IS the coloring; nothing is hidden.")
}

func auditHiding() {
	type audit struct {
		name string
		ng   func() (*nbhd.NGraph, bool, error) // graph, anonymous
	}
	audits := []audit{
		{"degree-one (Lemma 4.1)", func() (*nbhd.NGraph, bool, error) {
			s := decoders.DegreeOne()
			ng, err := nbhd.BuildShardedCtx(context.Background(), obs.Scope{}, s.Decoder, nbhd.ShardedAllLabelings(decoders.DegOneAlphabet(), decoders.DegOneFamily(4)...), 0, 0)
			return ng, true, err
		}},
		{"even-cycle (Lemma 4.2)", func() (*nbhd.NGraph, bool, error) {
			s := decoders.EvenCycle()
			family, err := decoders.EvenCycleFamily(4, 6)
			if err != nil {
				return nil, true, err
			}
			ng, err := nbhd.BuildShardedCtx(context.Background(), obs.Scope{}, s.Decoder, nbhd.ShardedFromLabeled(family...), 0, 0)
			return ng, true, err
		}},
		{"shatter (Theorem 1.3)", func() (*nbhd.NGraph, bool, error) {
			s := decoders.Shatter()
			l1, l2 := decoders.ShatterHidingPair()
			ng, err := nbhd.BuildShardedCtx(context.Background(), obs.Scope{}, s.Decoder, nbhd.ShardedFromLabeled(l1, l2), 0, 0)
			return ng, false, err
		}},
		{"watermelon (Theorem 1.4)", func() (*nbhd.NGraph, bool, error) {
			s := decoders.Watermelon()
			l1, l2, err := decoders.WatermelonHidingPair()
			if err != nil {
				return nil, false, err
			}
			ng, err := nbhd.BuildShardedCtx(context.Background(), obs.Scope{}, s.Decoder, nbhd.ShardedFromLabeled(l1, l2), 0, 0)
			return ng, false, err
		}},
	}
	for _, a := range audits {
		ng, anonymous, err := a.ng()
		if err != nil {
			log.Fatalf("%s: %v", a.name, err)
		}
		_, exErr := nbhd.NewExtractor(ng, 2, anonymous)
		fmt.Printf("%-28s views=%-4d odd cycle: %-3v extraction: %v\n",
			a.name, ng.Size(), ng.Hiding(), exErr)
	}
	fmt.Println("-> every hiding scheme's neighborhood slice is non-2-colorable;")
	fmt.Println("   by Lemma 3.2 no r-round decoder can extract the coloring.")
}
