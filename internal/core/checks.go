package core

import (
	"fmt"

	"hidinglcp/internal/graph"
)

// CheckCompleteness verifies the completeness property of Section 2.2 on one
// instance: the scheme's prover must produce a labeling accepted by every
// node. It returns the certified labeling on success.
func CheckCompleteness(s Scheme, inst Instance) ([]string, error) {
	labels, err := s.Prover.Certify(inst)
	if err != nil {
		return nil, fmt.Errorf("prover failed on %v: %w", inst.G, err)
	}
	l, err := NewLabeled(inst, labels)
	if err != nil {
		return nil, fmt.Errorf("prover produced malformed labeling: %w", err)
	}
	outs, err := Run(s.Decoder, l)
	if err != nil {
		return nil, err
	}
	for v, ok := range outs {
		if !ok {
			return nil, fmt.Errorf("completeness violated: node %d rejects prover's certificate on %v", v, inst.G)
		}
	}
	return labels, nil
}

// StrongSoundnessViolation describes a labeled instance on which the
// accepting nodes induce a subgraph outside G(L) (Section 2.3 / 2.5).
type StrongSoundnessViolation struct {
	Labeled   Labeled
	Accepting []int
}

// Error implements error.
func (v *StrongSoundnessViolation) Error() string {
	return fmt.Sprintf("strong soundness violated on %v: accepting set %v induces a subgraph outside the language",
		v.Labeled.G, v.Accepting)
}

// CheckStrongSoundness verifies strong (promise) soundness of the decoder on
// one labeled instance: the subgraph induced by accepting nodes must lie in
// G(L). It returns a *StrongSoundnessViolation error when violated.
func CheckStrongSoundness(d Decoder, lang Language, l Labeled) error {
	acc, err := AcceptingSet(d, l)
	if err != nil {
		return err
	}
	sub, _ := l.G.InducedSubgraph(acc)
	if !lang.Contains(sub) {
		return &StrongSoundnessViolation{Labeled: l, Accepting: acc}
	}
	return nil
}

// CheckSoundness verifies plain soundness on one labeled no-instance: at
// least one node must reject. (Vacuous on yes-instances.)
func CheckSoundness(d Decoder, lang Language, l Labeled) error {
	if lang.Contains(l.G) {
		return nil
	}
	all, err := AllAccept(d, l)
	if err != nil {
		return err
	}
	if all {
		return fmt.Errorf("soundness violated: all nodes accept on no-instance %v", l.G)
	}
	return nil
}

// CheckAnonymous tests that the decoder's outputs on the labeled instance do
// not change across the supplied identifier assignments (each paired with an
// NBound). A genuine anonymity proof would quantify over all assignments;
// this is the finite slice used in tests.
func CheckAnonymous(d Decoder, l Labeled, idSets []graph.IDs, nBounds []int) error {
	if len(idSets) != len(nBounds) {
		return fmt.Errorf("idSets and nBounds have different lengths")
	}
	var ref []bool
	for i, ids := range idSets {
		alt := l
		alt.IDs = ids
		alt.NBound = nBounds[i]
		if err := alt.Validate(); err != nil {
			return fmt.Errorf("assignment %d: %w", i, err)
		}
		outs, err := Run(d, alt)
		if err != nil {
			return err
		}
		if ref == nil {
			ref = outs
			continue
		}
		for v := range outs {
			if outs[v] != ref[v] {
				return fmt.Errorf("output at node %d depends on identifier assignment %v", v, ids)
			}
		}
	}
	return nil
}

// CheckOrderInvariant tests that the decoder's outputs agree on every pair
// of supplied identifier assignments that induce the same order
// (Section 2.2). Pairs with different orders are ignored.
func CheckOrderInvariant(d Decoder, l Labeled, idSets []graph.IDs, nBound int) error {
	type result struct {
		ids  graph.IDs
		outs []bool
	}
	var results []result
	for i, ids := range idSets {
		alt := l
		alt.IDs = ids
		alt.NBound = nBound
		if err := alt.Validate(); err != nil {
			return fmt.Errorf("assignment %d: %w", i, err)
		}
		outs, err := Run(d, alt)
		if err != nil {
			return err
		}
		results = append(results, result{ids, outs})
	}
	for i := range results {
		for j := i + 1; j < len(results); j++ {
			if !results[i].ids.SameOrder(results[j].ids) {
				continue
			}
			for v := range results[i].outs {
				if results[i].outs[v] != results[j].outs[v] {
					return fmt.Errorf("order-invariance violated at node %d between %v and %v",
						v, results[i].ids, results[j].ids)
				}
			}
		}
	}
	return nil
}
