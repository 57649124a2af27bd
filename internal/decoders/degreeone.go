package decoders

import (
	"errors"
	"fmt"

	"hidinglcp/internal/core"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/view"
)

// Certificate symbols of the DegreeOne scheme (Lemma 4.1). The prover
// reveals a 2-coloring everywhere except at one degree-1 node of its
// choosing (labeled Bottom) and that node's unique neighbor (labeled Top).
const (
	DegOneColor0 = "0" // color 0 of the revealed part
	DegOneColor1 = "1" // color 1 of the revealed part
	DegOneBottom = "B" // ⊥: the hidden degree-1 node
	DegOneTop    = "T" // ⊤: the hidden node's unique neighbor
)

// DegOneAlphabet is the full certificate alphabet, handy for exhaustive
// adversarial labeling enumeration in soundness checks.
func DegOneAlphabet() []string {
	return []string{DegOneColor0, DegOneColor1, DegOneBottom, DegOneTop}
}

// DegreeOne returns the anonymous, strong, and hiding one-round LCP of
// Lemma 4.1 for 2-coloring on the class H1 of graphs with minimum degree 1.
// Certificates are constant-size (2 bits).
func DegreeOne() core.Scheme {
	return core.Scheme{
		Name:    "degree-one",
		Decoder: &degOneDecoder{},
		Prover:  &degOneProver{},
		Promise: core.Promise{
			Lang: core.TwoCol(),
			InClass: func(g *graph.Graph) bool {
				return g.IsBipartite() && g.N() >= 2 && g.MinDegree() == 1
			},
		},
		CertBits: func(string) int { return 2 },
	}
}

type degOneDecoder struct{}

var _ core.Decoder = (*degOneDecoder)(nil)

func (d *degOneDecoder) Rounds() int     { return 1 }
func (d *degOneDecoder) Anonymous() bool { return true }

// Decide implements the three rules of Lemma 4.1's decoder:
//
//  1. A ⊥ node accepts iff it has degree 1 and its unique neighbor is ⊤.
//  2. A ⊤ node accepts iff exactly one neighbor is ⊥ and all remaining
//     neighbors carry one common color β ∈ {0, 1}.
//  3. A colored node accepts iff at most one neighbor is ⊤ and every other
//     neighbor carries the opposite color.
func (d *degOneDecoder) Decide(mu *view.View) bool {
	center := view.Center
	row := mu.Ports.Rows[center]
	switch mu.Labels[center] {
	case DegOneBottom:
		w := soleNeighbor(row)
		return w >= 0 && mu.Labels[w] == DegOneTop
	case DegOneTop:
		bottoms := 0
		common := ""
		for _, w := range row {
			if w < 0 {
				continue
			}
			switch l := mu.Labels[w]; l {
			case DegOneBottom:
				bottoms++
			case DegOneColor0, DegOneColor1:
				if common == "" {
					common = l
				} else if common != l {
					return false
				}
			default:
				return false
			}
		}
		return bottoms == 1
	case DegOneColor0, DegOneColor1:
		own := mu.Labels[center]
		tops := 0
		for _, w := range row {
			if w < 0 {
				continue
			}
			switch l := mu.Labels[w]; l {
			case DegOneTop:
				tops++
				if tops > 1 {
					return false
				}
			case DegOneColor0, DegOneColor1:
				if l == own {
					return false
				}
			default:
				return false
			}
		}
		return true
	default:
		return false
	}
}

// soleNeighbor returns the one visible entry of a port row, or -1 when the
// row has none or several.
func soleNeighbor(row []int) int {
	sole := -1
	for _, w := range row {
		if w < 0 {
			continue
		}
		if sole >= 0 {
			return -1
		}
		sole = w
	}
	return sole
}

type degOneProver struct{}

var _ core.Prover = (*degOneProver)(nil)

// Certify hides the 2-coloring at the smallest degree-1 node: that node
// becomes ⊥, its unique neighbor ⊤, and every other node reveals its color
// in a proper 2-coloring. Within the ⊤ node's component the coloring
// guarantees all of ⊤'s remaining neighbors share one color.
func (p *degOneProver) Certify(inst core.Instance) ([]string, error) {
	g := inst.G
	coloring, ok := g.TwoColoring()
	if !ok {
		return nil, errors.New("graph is not bipartite")
	}
	hidden := -1
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) == 1 {
			hidden = v
			break
		}
	}
	if hidden == -1 {
		return nil, fmt.Errorf("graph has no degree-1 node (outside class H1): %v", g)
	}
	top := g.Neighbors(hidden)[0]
	labels := make([]string, g.N())
	for v := 0; v < g.N(); v++ {
		switch v {
		case hidden:
			labels[v] = DegOneBottom
		case top:
			labels[v] = DegOneTop
		default:
			if coloring[v] == 0 {
				labels[v] = DegOneColor0
			} else {
				labels[v] = DegOneColor1
			}
		}
	}
	return labels, nil
}
