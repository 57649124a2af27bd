package decoders

import (
	"fmt"
	"strconv"

	"hidinglcp/internal/core"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/view"
)

// Trivial returns the folklore one-round anonymous LCP for k-coloring: the
// certificate of a node is its color in a proper k-coloring, and a node
// accepts iff its own label is a valid color differing from every visible
// neighbor's. Certificates use ceil(log k) bits. The scheme is complete and
// strongly sound but, by design, NOT hiding: the certificate itself is the
// witness.
func Trivial(k int) core.Scheme {
	return core.Scheme{
		Name:    fmt.Sprintf("trivial-%d-col", k),
		Decoder: &trivialDecoder{k: k},
		Prover:  &trivialProver{k: k},
		Promise: core.Promise{
			Lang:    core.KCol(k),
			InClass: func(g *graph.Graph) bool { return g.IsKColorable(k) },
		},
		CertBits: func(string) int { return bitsFor(k) },
	}
}

type trivialDecoder struct {
	k int
}

var _ core.Decoder = (*trivialDecoder)(nil)

func (d *trivialDecoder) Rounds() int     { return 1 }
func (d *trivialDecoder) Anonymous() bool { return true }

func (d *trivialDecoder) Decide(mu *view.View) bool {
	own, err := d.color(mu.Labels[view.Center])
	if err != nil {
		return false
	}
	for _, w := range mu.Ports.Rows[view.Center] {
		if w < 0 {
			continue
		}
		c, err := d.color(mu.Labels[w])
		if err != nil || c == own {
			return false
		}
	}
	return true
}

func (d *trivialDecoder) color(label string) (int, error) {
	c, err := strconv.Atoi(label)
	if err != nil || c < 0 || c >= d.k {
		return 0, fmt.Errorf("label (len=%d) is not a color in [0,%d)", len(label), d.k)
	}
	return c, nil
}

type trivialProver struct {
	k int
}

var _ core.Prover = (*trivialProver)(nil)

func (p *trivialProver) Certify(inst core.Instance) ([]string, error) {
	coloring, ok := inst.G.KColoring(p.k)
	if !ok {
		return nil, fmt.Errorf("graph is not %d-colorable", p.k)
	}
	labels := make([]string, inst.G.N())
	for v, c := range coloring {
		labels[v] = strconv.Itoa(c)
	}
	return labels, nil
}
