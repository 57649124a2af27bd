package graph

import (
	"fmt"
	"sort"
	"strings"
)

// Graph6 encodes g in the standard graph6 format (the de-facto interchange
// format for small undirected graphs: one printable ASCII string per
// graph). Only graphs with at most 62 nodes are supported, which covers
// every corpus this library enumerates.
func (g *Graph) Graph6() (string, error) {
	n := g.n
	if n > 62 {
		return "", fmt.Errorf("graph6 small-format supports up to 62 nodes, have %d", n)
	}
	var b strings.Builder
	b.WriteByte(byte(n + 63))
	// Upper-triangle bits in column order: (0,1), (0,2), (1,2), (0,3), ...
	var bits []byte
	for v := 1; v < n; v++ {
		for u := 0; u < v; u++ {
			if g.HasEdge(u, v) {
				bits = append(bits, 1)
			} else {
				bits = append(bits, 0)
			}
		}
	}
	for i := 0; i < len(bits); i += 6 {
		var x byte
		for j := 0; j < 6; j++ {
			x <<= 1
			if i+j < len(bits) {
				x |= bits[i+j]
			}
		}
		b.WriteByte(x + 63)
	}
	return b.String(), nil
}

// ParseGraph6 decodes a graph6 string produced by Graph6 (small format,
// n <= 62). The padding bits of the last byte must be zero, so every
// accepted string is exactly the encoding of the graph it decodes to.
func ParseGraph6(s string) (*Graph, error) {
	if len(s) == 0 {
		return nil, fmt.Errorf("empty graph6 string")
	}
	n := int(s[0]) - 63
	if n < 0 || n > 62 {
		return nil, fmt.Errorf("graph6 node count byte %q out of range", s[0])
	}
	need := (n*(n-1)/2 + 5) / 6
	if len(s)-1 != need {
		return nil, fmt.Errorf("graph6 body has %d bytes, want %d for n=%d", len(s)-1, need, n)
	}
	g := New(n)
	bitIndex := 0
	readBit := func() (int, error) {
		byteIdx := 1 + bitIndex/6
		x := int(s[byteIdx]) - 63
		if x < 0 || x > 63 {
			return 0, fmt.Errorf("graph6 body byte %q out of range", s[byteIdx])
		}
		shift := 5 - bitIndex%6
		bitIndex++
		return (x >> uint(shift)) & 1, nil
	}
	for v := 1; v < n; v++ {
		for u := 0; u < v; u++ {
			bit, err := readBit()
			if err != nil {
				return nil, err
			}
			if bit == 1 {
				if err := g.AddEdge(u, v); err != nil {
					return nil, err
				}
			}
		}
	}
	if pad := bitIndex % 6; pad != 0 && (int(s[len(s)-1])-63)&(1<<uint(6-pad)-1) != 0 {
		return nil, fmt.Errorf("graph6 padding bits of %q are not zero", s[len(s)-1])
	}
	return g, nil
}

// DOT renders g in Graphviz DOT format with optional per-node labels
// (pass nil for bare node names).
func (g *Graph) DOT(name string, labels []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %s {\n", name)
	for v := 0; v < g.n; v++ {
		if labels != nil && v < len(labels) && labels[v] != "" {
			fmt.Fprintf(&b, "  n%d [label=%q];\n", v, labels[v])
		} else {
			fmt.Fprintf(&b, "  n%d;\n", v)
		}
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "  n%d -- n%d;\n", e[0], e[1])
	}
	b.WriteString("}\n")
	return b.String()
}

// CanonicalGraph6 returns the lexicographically smallest graph6 encoding
// over all node permutations — a canonical form usable for isomorphism
// dedup of the small graphs this library enumerates. Factorial cost; keep
// n small (it refuses n > 8).
func (g *Graph) CanonicalGraph6() (string, error) {
	if g.n > 8 {
		return "", fmt.Errorf("canonical form by permutation search limited to 8 nodes, have %d", g.n)
	}
	perm := make([]int, g.n)
	for i := range perm {
		perm[i] = i
	}
	best := ""
	var rec func(i int) error
	rec = func(i int) error {
		if i == g.n {
			h := New(g.n)
			for _, e := range g.Edges() {
				if err := h.AddEdge(perm[e[0]], perm[e[1]]); err != nil {
					return err
				}
			}
			s, err := h.Graph6()
			if err != nil {
				return err
			}
			if best == "" || s < best {
				best = s
			}
			return nil
		}
		for j := i; j < g.n; j++ {
			perm[i], perm[j] = perm[j], perm[i]
			if err := rec(i + 1); err != nil {
				return err
			}
			perm[i], perm[j] = perm[j], perm[i]
		}
		return nil
	}
	if err := rec(0); err != nil {
		return "", err
	}
	return best, nil
}

// SortedDegrees returns the degree sequence in ascending order.
func (g *Graph) SortedDegrees() []int {
	out := make([]int, g.n)
	for v := 0; v < g.n; v++ {
		out[v] = g.Degree(v)
	}
	sort.Ints(out)
	return out
}
