package core

import (
	"fmt"

	"hidinglcp/internal/graph"
)

// Language models the graph side of a distributed language: the set G(L) of
// graphs admitting a witness (Section 2.1), together with a witness checker.
// For k-col, G(L) is the set of k-colorable graphs and a witness is a proper
// k-coloring.
type Language struct {
	// Name identifies the language, e.g. "2-col".
	Name string
	// Contains reports whether g ∈ G(L).
	Contains func(g *graph.Graph) bool
	// ValidWitness reports whether witness (one output per node) certifies
	// g ∈ G(L), i.e. (G, witness) ∈ L.
	ValidWitness func(g *graph.Graph, witness []int) bool
}

// KCol returns the k-coloring language of Section 2.1: witnesses are proper
// colorings with colors 0..k-1.
func KCol(k int) Language {
	return Language{
		Name: fmt.Sprintf("%d-col", k),
		Contains: func(g *graph.Graph) bool {
			return g.IsKColorable(k)
		},
		ValidWitness: func(g *graph.Graph, witness []int) bool {
			if len(witness) != g.N() {
				return false
			}
			for _, c := range witness {
				if c < 0 || c >= k {
					return false
				}
			}
			return g.IsProperColoring(witness)
		},
	}
}

// TwoCol is the bipartiteness language 2-col, the paper's central case.
func TwoCol() Language {
	lang := KCol(2)
	// Bipartiteness has a fast exact test; prefer it over backtracking.
	lang.Contains = (*graph.Graph).IsBipartite
	return lang
}

// Promise is a promise problem L_H (Section 2.5): yes-instances are the
// graphs of class H ⊆ G(L); no-instances are the graphs outside G(L);
// everything else is a don't-care.
type Promise struct {
	Lang Language
	// InClass reports membership in H (the promise).
	InClass func(g *graph.Graph) bool
}
