package graphtest

import (
	"fmt"
	"strings"

	"hidinglcp/internal/graph"
)

// Graph6 encodes g in the standard graph6 format (the de-facto interchange
// format for small undirected graphs: one printable ASCII string per
// graph). Only graphs with at most 62 nodes are supported, which covers
// every corpus this library enumerates.
func Graph6(g *graph.Graph) (string, error) {
	n := g.N()
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
func ParseGraph6(s string) (*graph.Graph, error) {
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
	g := graph.New(n)
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
