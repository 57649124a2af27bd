package core

import (
	"fmt"

	"hidinglcp/internal/view"
)

// Decoder is an r-round binary decoder (Section 2.2): a computable map from
// radius-r views to accept/reject. Implementations must be pure functions of
// the view, and Decide must not retain mu or anything it holds: callers may
// hand it a scratch view that they refill after Decide returns (Run does).
type Decoder interface {
	// Rounds returns the verification radius r.
	Rounds() int
	// Anonymous reports whether the decoder is identifier-oblivious. Views
	// are anonymized before being passed to an anonymous decoder, so an
	// implementation may rely on seeing only zero identifiers.
	Anonymous() bool
	// Decide returns the accept (true) / reject (false) output for one view.
	Decide(mu *view.View) bool
}

// Prover assigns certificates to instances of the promise class. It mirrors
// the all-powerful prover of the paper restricted to yes-instances, where
// the paper's constructions are explicit.
type Prover interface {
	// Certify returns a labeling of inst that the scheme's decoder accepts
	// at every node, or an error if inst lies outside the promise class the
	// prover understands.
	Certify(inst Instance) ([]string, error)
}

// Scheme bundles a named LCP: decoder, prover, the promise problem it
// certifies, and its certificate encoding size.
type Scheme struct {
	Name    string
	Decoder Decoder
	Prover  Prover
	Promise Promise
	// CertBits returns the length in bits of a label under the scheme's
	// documented binary encoding. If nil, 8*len(label) is used.
	CertBits func(label string) int
}

// LabelBits measures one label under the scheme's encoding.
func (s Scheme) LabelBits(label string) int {
	if s.CertBits != nil {
		return s.CertBits(label)
	}
	return 8 * len(label)
}

// MaxLabelBits measures the largest label of a labeling.
func (s Scheme) MaxLabelBits(labels []string) int {
	max := 0
	for _, l := range labels {
		if b := s.LabelBits(l); b > max {
			max = b
		}
	}
	return max
}

// Run evaluates the decoder at every node of the labeled instance and
// returns the per-node outputs. Views are anonymized first iff the decoder
// is anonymous. Each view is a scratch refilled for the next node (see
// Labeled.EachView), which the Decoder contract allows.
func Run(d Decoder, l Labeled) ([]bool, error) {
	out := make([]bool, l.G.N())
	err := l.EachView(d.Rounds(), d.Anonymous(), func(v int, mu *view.View) error {
		out[v] = d.Decide(mu)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("extracting views: %w", err)
	}
	return out, nil
}

// AcceptingSet returns the nodes at which the decoder accepts.
func AcceptingSet(d Decoder, l Labeled) ([]int, error) {
	outs, err := Run(d, l)
	if err != nil {
		return nil, err
	}
	var acc []int
	for v, ok := range outs {
		if ok {
			acc = append(acc, v)
		}
	}
	return acc, nil
}

// AllAccept reports whether every node accepts.
func AllAccept(d Decoder, l Labeled) (bool, error) {
	outs, err := Run(d, l)
	if err != nil {
		return false, err
	}
	for _, ok := range outs {
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

var _ Decoder = (*decoderFunc)(nil)

type decoderFunc struct {
	r      int
	anon   bool
	decide func(mu *view.View) bool
}

// NewDecoder builds a Decoder from a plain function.
func NewDecoder(rounds int, anonymous bool, decide func(mu *view.View) bool) Decoder {
	return &decoderFunc{r: rounds, anon: anonymous, decide: decide}
}

func (d *decoderFunc) Rounds() int               { return d.r }
func (d *decoderFunc) Anonymous() bool           { return d.anon }
func (d *decoderFunc) Decide(mu *view.View) bool { return d.decide(mu) }
