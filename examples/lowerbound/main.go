// Lower-bound walkthrough: the Section 5 pipeline, narrated. A strawman
// decoder that accepts any "ok"-labeled node pretends to be a strong and
// hiding LCP; the realizability machinery mechanically refutes it by
// assembling the counterexample instance G_bad of Lemma 5.1 from an odd
// cycle of accepting views.
//
// Run with: go run ./examples/lowerbound
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"hidinglcp/internal/core"
	"hidinglcp/internal/forgetful"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/nbhd"
	"hidinglcp/internal/obs"
	"hidinglcp/internal/view"
)

func main() {
	okDecoder := core.NewDecoder(1, false, func(mu *view.View) bool {
		return mu.Labels[view.Center] == "ok"
	})

	fmt.Println("Step 1: collect accepting views from yes-instances.")
	// Three bipartite path instances; the center of each sees the other two
	// identifiers of {1, 2, 3}.
	var anchorViews []*view.View
	for _, ids := range []graph.IDs{{2, 1, 3}, {1, 2, 3}, {1, 3, 2}} {
		g := graph.Path(3)
		inst := core.Instance{G: g, Prt: graph.DefaultPorts(g), IDs: ids, NBound: 3}
		l := core.MustNewLabeled(inst, []string{"ok", "ok", "ok"})
		mu, err := l.ViewOf(1, 1)
		if err != nil {
			log.Fatal(err)
		}
		anchorViews = append(anchorViews, mu)
		fmt.Printf("  anchor: center id %d sees ids %v\n", mu.IDs[view.Center], neighborsOf(mu))
	}

	fmt.Println("Step 2: check realizability (Section 5.1 compatibility).")
	anchors, err := forgetful.NewAnchors(anchorViews...)
	if err != nil {
		log.Fatal(err)
	}
	if err := forgetful.CheckRealizable(anchorViews, anchors); err != nil {
		log.Fatalf("not realizable: %v", err)
	}
	fmt.Println("  realizable: every shared identifier has compatible occurrences.")

	fmt.Println("Step 3: assemble G_bad (Lemma 5.1).")
	gBad, _, err := forgetful.BuildGBad(anchors, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  G_bad = %v, bipartite: %v\n", gBad.G, gBad.G.IsBipartite())

	fmt.Println("Step 4: the decoder accepts all of G_bad -> strong soundness refuted.")
	err = core.CheckStrongSoundness(okDecoder, core.TwoCol(), gBad)
	var violation *core.StrongSoundnessViolation
	if !errors.As(err, &violation) {
		log.Fatalf("expected a violation, got: %v", err)
	}
	fmt.Printf("  accepting set %v induces a non-bipartite subgraph.\n", violation.Accepting)

	fmt.Println("Step 5: the Fig. 8 escape walk on a 1-forgetful host (Lemma 5.4).")
	host := graph.MustCycle(12)
	walk, err := forgetful.EscapeWalk(host, 0, 1, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  closed walk %v: non-backtracking %v, even length %v\n",
		walk, forgetful.IsNonBacktracking(walk), (len(walk)-1)%2 == 0)

	fmt.Println("Step 6: lift the walk into the accepting neighborhood graph.")
	labels := make([]string, host.N())
	for i := range labels {
		labels[i] = "ok"
	}
	l := core.MustNewLabeled(core.NewInstance(host), labels)
	ng, err := nbhd.BuildShardedCtx(context.Background(), obs.Scope{}, okDecoder, nbhd.ShardedFromLabeled(l, gBad), 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	odd := forgetful.FindOddClosedWalk(ng, 9, true)
	fmt.Printf("  V(D,n) slice: %d views; non-backtracking odd walk found: %v (length %d)\n",
		ng.Size(), odd != nil, len(odd)-1)
	fmt.Println("Conclusion: a decoder accepting an odd view-cycle on realizable anchors")
	fmt.Println("cannot be strongly sound — the executable core of Theorem 1.5.")
}

func neighborsOf(mu *view.View) []int {
	var ids []int
	for _, w := range mu.Ports.Rows[view.Center] {
		if w >= 0 {
			ids = append(ids, mu.IDs[w])
		}
	}
	return ids
}
