package decoders

import (
	"fmt"
	"strings"

	"hidinglcp/internal/core"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/view"
)

// Shatter returns the non-anonymous, strong, and hiding one-round LCP of
// Theorem 1.3 for 2-coloring on the class of graphs admitting a shatter
// point: a node v such that G - N[v] is disconnected. The certificate hides
// the coloring on N[v]; deep component nodes reveal a per-component
// coloring whose global orientation only the shatter point's closed
// neighborhood knows. Certificates take O(min{Δ², n} + log n) bits.
//
// DEVIATION FROM THE PAPER'S LITERAL DECODER: the conditions written in the
// brief announcement's proof of Theorem 1.3 are not strongly sound — when
// the type-0 (shatter point) node itself rejects, two accepting type-1
// nodes may carry different color vectors, and the induced accepting
// subgraph can contain an odd cycle (ShatterLiteral + the tests exhibit a
// concrete counterexample). This implementation patches the scheme
// minimally and in the spirit of the proof:
//
//  1. the type-0 certificate carries the colors vector (content (id, colors)
//     instead of just id);
//  2. a type-1 node additionally checks that its unique type-0 neighbor's
//     REAL identifier equals the announced shatter identifier and that the
//     type-0 neighbor's vector equals its own.
//
// Every accepting type-1 node is then adjacent to the one node carrying the
// announced identifier, whose single certificate fixes one common vector,
// and the paper's parity argument goes through. Completeness, the
// O(min{Δ², n} + log n) size bound, and the paper's P8/P7 hiding pair are
// all unaffected (the shatter point's certificate is invisible at distance
// two or more).
func Shatter() core.Scheme {
	return shatterScheme(false)
}

// ShatterLiteral returns the decoder with exactly the conditions written in
// the paper's proof of Theorem 1.3 (type-0 content is the bare identifier;
// no cross-check of the type-0 neighbor's real identifier or vector). It is
// complete and hiding but NOT strongly sound; it exists so the gap is a
// reproducible artifact.
func ShatterLiteral() core.Scheme {
	return shatterScheme(true)
}

func shatterScheme(literal bool) core.Scheme {
	name := "shatter"
	if literal {
		name = "shatter-literal"
	}
	return core.Scheme{
		Name:    name,
		Decoder: &shatterDecoder{literal: literal},
		Prover:  &shatterProver{literal: literal},
		Promise: core.Promise{
			Lang: core.TwoCol(),
			InClass: func(g *graph.Graph) bool {
				return g.IsBipartite() && graph.HasShatterPoint(g) >= 0
			},
		},
		CertBits: shatterCertBits,
	}
}

// ShatterPointLabel encodes a type-0 certificate of the patched scheme: the
// shatter point's identifier plus the per-component facing colors.
func ShatterPointLabel(id int, colors []int) string {
	return fmt.Sprintf("S0:%d:%s", id, colorBits(colors))
}

// ShatterPointLabelLiteral encodes a type-0 certificate of the literal
// paper scheme: the identifier only.
func ShatterPointLabelLiteral(id int) string { return fmt.Sprintf("S0:%d:", id) }

// ShatterNeighborLabel encodes a type-1 certificate: the shatter point's
// identifier and the vector whose i-th entry is the color facing N(v) in
// component i+1.
func ShatterNeighborLabel(id int, colors []int) string {
	return fmt.Sprintf("S1:%d:%s", id, colorBits(colors))
}

// ShatterCompLabel encodes a type-2 certificate: the shatter point's
// identifier, the node's 1-based component number, and its color.
func ShatterCompLabel(id, comp, x int) string {
	return fmt.Sprintf("S2:%d:%d:%d", id, comp, x)
}

func colorBits(colors []int) string {
	var sb strings.Builder
	for _, c := range colors {
		sb.WriteByte(byte('0' + c))
	}
	return sb.String()
}

type shatterCert struct {
	typ    int
	id     int
	colors string // types 0 (patched) and 1: the vector as '0'/'1' bytes
	comp   int    // type 2
	x      int    // type 2
}

// color returns entry i (0-based) of a type-0 or type-1 color vector.
func (c shatterCert) color(i int) int { return int(c.colors[i] - '0') }

// parseShatterCert parses one Shatter certificate in place and reports
// whether it is well formed; the color vector stays a substring of label,
// so the decoder's hot path builds no strings, slices or errors.
func parseShatterCert(label string) (shatterCert, bool) {
	var c shatterCert
	if len(label) < 3 || label[0] != 'S' || label[2] != ':' {
		return c, false
	}
	switch label[1] {
	case '0', '1':
		id, next, ok := scanNat(label, 3)
		if !ok || id < 1 || next == len(label) || label[next] != ':' {
			return c, false
		}
		colors := label[next+1:]
		for i := 0; i < len(colors); i++ {
			if colors[i] != '0' && colors[i] != '1' {
				return c, false
			}
		}
		return shatterCert{typ: int(label[1] - '0'), id: id, colors: colors}, true
	case '2':
		var f [3]int
		if !scanNats(label[3:], "::", f[:]) || f[0] < 1 || f[1] < 1 || f[2] > 1 {
			return c, false
		}
		return shatterCert{typ: 2, id: f[0], comp: f[1], x: f[2]}, true
	}
	return c, false
}

func shatterCertBits(label string) int {
	c, ok := parseShatterCert(label)
	if !ok {
		return 8 * len(label)
	}
	switch c.typ {
	case 0, 1:
		return 2 + bitsForValue(c.id) + len(c.colors)
	default:
		return 2 + bitsForValue(c.id) + bitsForValue(c.comp) + 1
	}
}

type shatterDecoder struct {
	literal bool
}

var _ core.Decoder = (*shatterDecoder)(nil)

func (d *shatterDecoder) Rounds() int     { return 1 }
func (d *shatterDecoder) Anonymous() bool { return false }

// Decide implements the decoder of Theorem 1.3 (conditions 1, 2(a)-(c),
// 3(a)-(c) of its proof), plus — unless literal — the vector-anchoring
// checks documented on Shatter. It parses the neighbours one at a time and
// returns false at the first malformed label or broken condition; every
// rejection is the same verdict, so the order of the checks does not
// matter.
func (d *shatterDecoder) Decide(mu *view.View) bool {
	center := view.Center
	own, ok := parseShatterCert(mu.Labels[center])
	if !ok {
		return false
	}
	row := mu.Ports.Rows[center]
	switch own.typ {
	case 0:
		// Condition 1: own id field matches own identifier; all neighbors
		// are type 1 with identical content and id field = id(u).
		if own.id != mu.IDs[center] {
			return false
		}
		first := "" // the first neighbor's label; a parsed label is never empty
		for _, w := range row {
			if w < 0 {
				continue
			}
			c, ok := parseShatterCert(mu.Labels[w])
			if !ok || c.typ != 1 || c.id != own.id {
				return false
			}
			if first == "" {
				first = mu.Labels[w]
			} else if mu.Labels[w] != first {
				return false
			}
		}
		return true
	case 1:
		// Condition 2(a): no type-1 neighbor.
		// Condition 2(b): a unique type-0 neighbor with matching id field —
		// patched: the neighbor's REAL identifier and its vector must match
		// too.
		// Condition 2(c): every type-2 neighbor matches id and its color
		// equals colors[comp].
		shatters := 0
		for _, w := range row {
			if w < 0 {
				continue
			}
			c, ok := parseShatterCert(mu.Labels[w])
			if !ok {
				return false
			}
			switch c.typ {
			case 1:
				return false
			case 0:
				shatters++
				if c.id != own.id {
					return false
				}
				if !d.literal {
					if mu.IDs[w] != own.id {
						return false
					}
					if c.colors != own.colors {
						return false
					}
				}
			case 2:
				if c.id != own.id {
					return false
				}
				if c.comp > len(own.colors) {
					return false
				}
				if own.color(c.comp-1) != c.x {
					return false
				}
			}
		}
		return shatters == 1
	default: // type 2
		// Condition 3(a): no type-0 neighbor.
		// Condition 3(b): type-1 neighbors match id and colors[comp] = x.
		// Condition 3(c): type-2 neighbors match id and comp, with the
		// opposite color.
		for _, w := range row {
			if w < 0 {
				continue
			}
			c, ok := parseShatterCert(mu.Labels[w])
			if !ok {
				return false
			}
			switch c.typ {
			case 0:
				return false
			case 1:
				if c.id != own.id {
					return false
				}
				if own.comp > len(c.colors) {
					return false
				}
				if c.color(own.comp-1) != own.x {
					return false
				}
			case 2:
				if c.id != own.id || c.comp != own.comp || c.x == own.x {
					return false
				}
			}
		}
		return true
	}
}

type shatterProver struct {
	literal bool
}

var _ core.Prover = (*shatterProver)(nil)

// Certify picks the smallest shatter point v, 2-colors each component of
// G - N[v] independently, and publishes per component the color facing
// N(v), as in the completeness part of Theorem 1.3. The instance must carry
// identifiers (the scheme is non-anonymous).
func (p *shatterProver) Certify(inst core.Instance) ([]string, error) {
	g := inst.G
	if inst.IDs == nil {
		return nil, fmt.Errorf("shatter scheme requires identifiers")
	}
	if !g.IsBipartite() {
		return nil, fmt.Errorf("graph is not bipartite")
	}
	v := graph.HasShatterPoint(g)
	if v < 0 {
		return nil, fmt.Errorf("graph has no shatter point: %v", g)
	}
	rest, orig := g.DeleteClosedNeighborhood(v)
	comps := rest.Components()

	compOf := make(map[int]int)  // host node -> 1-based component number
	colorOf := make(map[int]int) // host node -> color within its component
	colors := make([]int, len(comps))
	for ci, comp := range comps {
		sub, subOrig := rest.InducedSubgraph(comp)
		coloring, ok := sub.TwoColoring()
		if !ok {
			return nil, fmt.Errorf("component %d is not bipartite", ci+1)
		}
		facing := -1
		for si, ri := range subOrig {
			host := orig[ri]
			compOf[host] = ci + 1
			colorOf[host] = coloring[si]
			// Does this node face N(v)?
			for _, u := range g.Neighbors(v) {
				if g.HasEdge(host, u) {
					if facing != -1 && facing != coloring[si] {
						return nil, fmt.Errorf("component %d faces N(v) with both colors (Lemma 7.1(3) violated)", ci+1)
					}
					facing = coloring[si]
				}
			}
		}
		if facing == -1 {
			facing = 0 // component not adjacent to N(v); arbitrary
		}
		colors[ci] = facing
	}

	id := inst.IDs[v]
	labels := make([]string, g.N())
	if p.literal {
		labels[v] = ShatterPointLabelLiteral(id)
	} else {
		labels[v] = ShatterPointLabel(id, colors)
	}
	for _, u := range g.Neighbors(v) {
		labels[u] = ShatterNeighborLabel(id, colors)
	}
	for host, ci := range compOf {
		labels[host] = ShatterCompLabel(id, ci, colorOf[host])
	}
	return labels, nil
}
