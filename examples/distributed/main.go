// Distributed verification demo: run the shatter-point scheme on a grid as
// a genuine synchronous message-passing computation — one goroutine per
// node — and report the communication profile, then corrupt one
// certificate and watch the affected neighborhood reject.
//
// Run with: go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"

	"hidinglcp/internal/core"
	"hidinglcp/internal/decoders"
	"hidinglcp/internal/faults"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/obs"
	"hidinglcp/internal/sim"
)

func main() {
	g := graph.Grid(4, 5)
	inst := core.NewInstance(g)
	scheme := decoders.Shatter()

	fmt.Printf("instance: 4x5 grid, %d nodes, %d edges\n", g.N(), g.M())
	ctx := context.Background()
	// The zero-value plan is the fault-free run.
	fr, err := sim.RunSchemeFaultsCtx(ctx, obs.Scope{}, scheme, inst, faults.Plan{})
	if err != nil {
		log.Fatal(err)
	}
	ok, _, _ := fr.Counts()
	fmt.Printf("message-passing verification: %d rounds, %d messages, %d flooded records\n",
		fr.Stats.Rounds, fr.Stats.Messages, fr.Stats.Records)
	fmt.Printf("verdict: %d/%d nodes accept\n", ok, g.N())

	// Now corrupt the certificate of one node and re-verify: soundness in
	// action — rejection is local to the corrupted neighborhood.
	labels, err := scheme.Prover.Certify(inst)
	if err != nil {
		log.Fatal(err)
	}
	const victim = 7
	labels[victim] = decoders.ShatterCompLabel(99, 1, 0) // wrong shatter identifier
	l := core.MustNewLabeled(inst, labels)
	views, _, _, err := sim.GatherFaultsCtx(ctx, obs.Scope{}, l, scheme.Decoder.Rounds(), faults.Plan{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter corrupting node %d's certificate:\n", victim)
	rejecting := 0
	for v, mu := range views {
		if !scheme.Decoder.Decide(mu) {
			rejecting++
			fmt.Printf("  node %d rejects (distance %d from the corruption)\n", v, g.Dist(v, victim))
		}
	}
	if rejecting == 0 {
		log.Fatal("corruption went unnoticed — soundness bug!")
	}
	fmt.Printf("%d nodes reject; all within 1 hop of the corruption (one-round verification).\n", rejecting)
}
