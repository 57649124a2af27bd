package nbhd

import (
	"fmt"

	"hidinglcp/internal/core"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/view"
)

// Extractor is the extraction decoder D' of Lemma 3.2: from a proper
// k-coloring of V(D, n) it deterministically assigns each accepting view a
// color, thereby extracting a proper k-coloring of any instance that D
// accepts everywhere (provided the instance's views all appear in the
// enumerated slice).
type Extractor struct {
	ng        *NGraph
	coloring  []int
	k         int
	anonymous bool
}

// NewExtractor builds D' from the canonical k-coloring of ng. It fails
// exactly when V(D, n) is not k-colorable — which, by Lemma 3.2, is the
// hiding case.
func NewExtractor(ng *NGraph, k int, anonymous bool) (*Extractor, error) {
	coloring, ok := ng.KColoring(k)
	if !ok {
		return nil, fmt.Errorf("neighborhood graph is not %d-colorable: decoder is hiding at this size", k)
	}
	return &Extractor{ng: ng, coloring: coloring, k: k, anonymous: anonymous}, nil
}

// Color returns the extracted color of one view. It fails if the view is
// not an accepting view of the slice.
func (e *Extractor) Color(mu *view.View) (int, error) {
	if e.anonymous {
		mu = mu.Anonymize()
	}
	i := e.ng.IndexOfView(mu)
	if i < 0 {
		return 0, fmt.Errorf("view not in the accepting neighborhood graph")
	}
	return e.coloring[i], nil
}

// ExtractWitness runs D' at every node of the labeled instance (with
// verification radius r) and returns the extracted coloring.
func (e *Extractor) ExtractWitness(l core.Labeled, r int) ([]int, error) {
	witness := make([]int, l.G.N())
	err := l.EachView(r, e.anonymous, func(v int, mu *view.View) error {
		c, err := e.Color(mu)
		if err != nil {
			return fmt.Errorf("node %d: %w", v, err)
		}
		witness[v] = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	return witness, nil
}

// ConflictReport quantifies how much of a k-coloring is hidden on one
// accepted instance: the minimum, over ALL view-consistent color
// assignments (any map from distinct views to [k], the best any r-round
// extraction decoder could do on this instance), of the number of
// monochromatic edges and of the number of nodes incident to a
// monochromatic edge.
type ConflictReport struct {
	// DistinctViews is the number of distinct views in the instance.
	DistinctViews int
	// MinBadEdges is the minimum achievable number of monochromatic edges.
	MinBadEdges int
	// MinFailNodes is the minimum achievable number of nodes incident to a
	// monochromatic edge.
	MinFailNodes int
	// FailFraction is MinFailNodes / n — the paper's proposed quantified
	// hiding metric (Section 2.4 discussion).
	FailFraction float64
}

// MinExtractionConflicts computes the ConflictReport of decoder d on labeled
// instance l for k colors, by brute force over the k^(#distinct views)
// view-consistent assignments. It is the mechanical counterpart of "no
// decoder can extract a coloring here": MinFailNodes > 0 proves every
// decoder fails somewhere on this instance.
func MinExtractionConflicts(d core.Decoder, l core.Labeled, k int) (ConflictReport, error) {
	index := make(map[string]int)
	nodeClass := make([]int, l.G.N())
	err := l.EachView(d.Rounds(), d.Anonymous(), func(v int, mu *view.View) error {
		// Classes are numbered in first-occurrence order. The key outlives
		// the scratch view: a refill drops the view's key, never writes it.
		key := mu.Key()
		if _, ok := index[key]; !ok {
			index[key] = len(index)
		}
		nodeClass[v] = index[key]
		return nil
	})
	if err != nil {
		return ConflictReport{}, err
	}
	m := len(index)
	// The search is k^m; refuse absurd inputs instead of hanging.
	cost := 1.0
	for i := 0; i < m; i++ {
		cost *= float64(k)
		if cost > 2e7 {
			return ConflictReport{}, fmt.Errorf("conflict search needs %d^%d assignments; instance has too many distinct views", k, m)
		}
	}
	report := ConflictReport{
		DistinctViews: m,
		MinBadEdges:   l.G.M() + 1,
		MinFailNodes:  l.G.N() + 1,
	}
	edges := l.G.Edges()
	graph.EnumLabelings(m, k, func(assign []int) bool {
		badEdges := 0
		failNode := make(map[int]bool)
		for _, e := range edges {
			if assign[nodeClass[e[0]]] == assign[nodeClass[e[1]]] {
				badEdges++
				failNode[e[0]] = true
				failNode[e[1]] = true
			}
		}
		if badEdges < report.MinBadEdges {
			report.MinBadEdges = badEdges
		}
		if len(failNode) < report.MinFailNodes {
			report.MinFailNodes = len(failNode)
		}
		return true
	})
	if l.G.N() > 0 {
		report.FailFraction = float64(report.MinFailNodes) / float64(l.G.N())
	}
	return report, nil
}
