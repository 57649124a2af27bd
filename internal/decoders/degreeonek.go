package decoders

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"hidinglcp/internal/core"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/view"
)

// DegreeOneK generalizes the Lemma 4.1 scheme from 2-coloring to
// k-coloring, the direction Section 1.3 of the paper sketches ("some of
// our upper bound techniques are also useful in the general case"): on
// graphs with minimum degree one, reveal a proper k-coloring everywhere
// except at one pendant node (⊥) and its unique neighbor (⊤), and have ⊤
// verify that its colored neighbors leave a color free.
//
// The scheme is anonymous, one-round, complete, and STRONGLY sound for
// k-col: in the accepting-induced subgraph the colored core is properly
// colored, an accepting ⊤ sees at most k-1 distinct neighbor colors (so a
// color remains for it), ⊤ nodes are never adjacent, and each ⊥ is a
// pendant of its ⊤ — so the subgraph is always k-colorable. Certificates
// take ceil(log(k+2)) bits.
//
// Whether the generalization is HIDING for k >= 3 is precisely the open
// direction the paper defers; the tests explore the neighborhood-graph
// slice and record the verdict without asserting it.
func DegreeOneK(k int) core.Scheme {
	return core.Scheme{
		Name:    fmt.Sprintf("degree-one-%d-col", k),
		Decoder: &degOneKDecoder{k: k, prefix: fmt.Sprintf("K%d:", k)},
		Prover:  &degOneKProver{k: k},
		Promise: core.Promise{
			Lang: core.KCol(k),
			InClass: func(g *graph.Graph) bool {
				return g.N() >= 2 && g.MinDegree() == 1 && g.IsKColorable(k)
			},
		},
		CertBits: func(string) int { return bitsFor(k + 2) },
	}
}

// DegOneKLabel builds the certificate strings of DegreeOneK: pass
// color = -1 for ⊥ and color = -2 for ⊤.
func DegOneKLabel(k, color int) string {
	switch color {
	case -1:
		return fmt.Sprintf("K%d:B", k)
	case -2:
		return fmt.Sprintf("K%d:T", k)
	default:
		return fmt.Sprintf("K%d:%d", k, color)
	}
}

// DegOneKAlphabet lists every certificate symbol of DegreeOneK(k).
func DegOneKAlphabet(k int) []string {
	out := []string{DegOneKLabel(k, -1), DegOneKLabel(k, -2)}
	for c := 0; c < k; c++ {
		out = append(out, DegOneKLabel(k, c))
	}
	return out
}

type degOneKCert struct {
	kind  byte // 'B', 'T', or 'C'
	color int
}

// parseDegOneKCert parses one certificate of DegreeOneK(k); prefix is the
// decoder's precomputed "K<k>:" so the hot path builds no strings.
func parseDegOneKCert(k int, prefix, label string) (degOneKCert, error) {
	if !strings.HasPrefix(label, prefix) {
		return degOneKCert{}, fmt.Errorf("label (len=%d) is not a K%d certificate", len(label), k)
	}
	body := label[len(prefix):]
	switch body {
	case "B":
		return degOneKCert{kind: 'B'}, nil
	case "T":
		return degOneKCert{kind: 'T'}, nil
	}
	c, err := strconv.Atoi(body)
	if err != nil || c < 0 || c >= k {
		return degOneKCert{}, fmt.Errorf("label (len=%d) has no valid color", len(label))
	}
	return degOneKCert{kind: 'C', color: c}, nil
}

type degOneKDecoder struct {
	k      int
	prefix string // "K<k>:"
}

var _ core.Decoder = (*degOneKDecoder)(nil)

func (d *degOneKDecoder) Rounds() int     { return 1 }
func (d *degOneKDecoder) Anonymous() bool { return true }

// Decide parses the neighbours one at a time and returns false at the first
// malformed label or broken rule; every rejection is the same verdict, so
// the order of the checks does not matter.
func (d *degOneKDecoder) Decide(mu *view.View) bool {
	own, err := parseDegOneKCert(d.k, d.prefix, mu.Labels[view.Center])
	if err != nil {
		return false
	}
	row := mu.Ports.Rows[view.Center]
	switch own.kind {
	case 'B':
		w := soleNeighbor(row)
		if w < 0 {
			return false
		}
		c, err := parseDegOneKCert(d.k, d.prefix, mu.Labels[w])
		return err == nil && c.kind == 'T'
	case 'T':
		bottoms := 0
		var buf [8]int
		colors := buf[:0] // distinct neighbour colors
		for _, w := range row {
			if w < 0 {
				continue
			}
			c, err := parseDegOneKCert(d.k, d.prefix, mu.Labels[w])
			if err != nil {
				return false
			}
			switch c.kind {
			case 'B':
				bottoms++
			case 'C':
				if !slices.Contains(colors, c.color) {
					colors = append(colors, c.color)
				}
			default:
				return false
			}
		}
		// A free color must remain for ⊤ itself.
		return bottoms == 1 && len(colors) <= d.k-1
	default: // colored
		tops := 0
		for _, w := range row {
			if w < 0 {
				continue
			}
			c, err := parseDegOneKCert(d.k, d.prefix, mu.Labels[w])
			if err != nil {
				return false
			}
			switch c.kind {
			case 'T':
				tops++
				if tops > 1 {
					return false
				}
			case 'C':
				if c.color == own.color {
					return false
				}
			default:
				return false
			}
		}
		return true
	}
}

type degOneKProver struct {
	k int
}

var _ core.Prover = (*degOneKProver)(nil)

func (p *degOneKProver) Certify(inst core.Instance) ([]string, error) {
	g := inst.G
	coloring, ok := g.KColoring(p.k)
	if !ok {
		return nil, fmt.Errorf("graph is not %d-colorable", p.k)
	}
	hidden := -1
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) == 1 {
			hidden = v
			break
		}
	}
	if hidden == -1 {
		return nil, errors.New("graph has no degree-1 node (outside class H1)")
	}
	top := g.Neighbors(hidden)[0]
	labels := make([]string, g.N())
	for v := 0; v < g.N(); v++ {
		switch v {
		case hidden:
			labels[v] = DegOneKLabel(p.k, -1)
		case top:
			labels[v] = DegOneKLabel(p.k, -2)
		default:
			labels[v] = DegOneKLabel(p.k, coloring[v])
		}
	}
	return labels, nil
}
