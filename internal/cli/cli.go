// Package cli holds the flag plumbing and specification parsers shared by
// the command-line tools (cmd/lcpcheck, cmd/nbhdgraph, cmd/experiments):
// graph-family specs, fault-plan flags, observability flags, and the
// -timeout/-deadline run flags. The scheme table itself lives in
// internal/decoders (decoders.Schemes) and the dispatch layer in
// internal/engine — this package never names individual schemes.
package cli

import (
	"fmt"
	"strconv"
	"strings"

	"hidinglcp/internal/graph"
)

// maxSpecSize bounds the nodes plus edges a graph spec may describe. It is
// far beyond anything the verifiers can check, and it keeps a typo such as
// binarytree:63 from overflowing the node count or starting an unbounded
// build.
const maxSpecSize = 1 << 16

// ParseGraph builds a graph from a specification of the form family:args.
// Families: path:N, cycle:N, grid:RxC, torus:RxC, star:N, complete:N,
// binarytree:LEVELS, spider:a,b,c, watermelon:l1,l2,..., petersen. Specs
// describing no nodes, or more than maxSpecSize nodes plus edges, are
// rejected before anything is built.
func ParseGraph(spec string) (*graph.Graph, error) {
	name, arg := spec, ""
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		name, arg = spec[:i], spec[i+1:]
	}
	var nodes, edges int64 // upper bounds, checked before building
	var build func() (*graph.Graph, error)
	switch name {
	case "path", "cycle", "star", "complete", "binarytree":
		n, err := parseCount(arg)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return nil, fmt.Errorf("graph spec %q has no nodes", spec)
		}
		nodes, edges = int64(n), int64(n)
		switch name {
		case "path":
			build = func() (*graph.Graph, error) { return graph.Path(n), nil }
		case "cycle":
			build = func() (*graph.Graph, error) { return graph.Cycle(n) }
		case "star":
			build = func() (*graph.Graph, error) { return graph.Star(n), nil }
		case "complete":
			edges = int64(n) * int64(n-1) / 2
			build = func() (*graph.Graph, error) { return graph.Complete(n), nil }
		case "binarytree":
			if n > 20 {
				nodes = maxSpecSize + 1 // 2^n - 1 nodes; avoid overflowing the shift
			} else {
				nodes, edges = 1<<n-1, 1<<n-1
			}
			build = func() (*graph.Graph, error) { return graph.CompleteBinaryTree(n), nil }
		}
	case "grid", "torus":
		r, c, err := parseDims(arg)
		if err != nil {
			return nil, err
		}
		if r == 0 || c == 0 {
			return nil, fmt.Errorf("graph spec %q has no nodes", spec)
		}
		nodes = int64(r) * int64(c)
		edges = 2 * nodes
		if name == "grid" {
			build = func() (*graph.Graph, error) { return graph.Grid(r, c), nil }
		} else {
			build = func() (*graph.Graph, error) { return graph.Torus(r, c) }
		}
	case "spider", "watermelon":
		lens, err := parseList(arg)
		if err != nil {
			return nil, err
		}
		nodes = 2
		for _, l := range lens {
			nodes += int64(l)
		}
		edges = nodes
		if name == "spider" {
			build = func() (*graph.Graph, error) { return graph.Spider(lens), nil }
		} else {
			build = func() (*graph.Graph, error) { return graph.Watermelon(lens) }
		}
	case "petersen":
		build = func() (*graph.Graph, error) { return graph.Petersen(), nil }
	default:
		return nil, fmt.Errorf("unknown graph family %q", name)
	}
	if nodes+edges > maxSpecSize {
		return nil, fmt.Errorf("graph spec %q is too large: more than %d nodes plus edges", spec, maxSpecSize)
	}
	return build()
}

// parseCount parses a nonnegative count no larger than maxSpecSize; a
// larger count cannot fit the spec limit and would risk overflow in the
// size arithmetic.
func parseCount(s string) (int, error) {
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad count %q in graph spec", s)
	}
	if v > maxSpecSize {
		return 0, fmt.Errorf("count %d in graph spec exceeds the limit %d", v, maxSpecSize)
	}
	return v, nil
}

func parseDims(s string) (int, int, error) {
	parts := strings.Split(s, "x")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("want RxC, got %q", s)
	}
	r, err := parseCount(parts[0])
	if err != nil {
		return 0, 0, err
	}
	c, err := parseCount(parts[1])
	if err != nil {
		return 0, 0, err
	}
	return r, c, nil
}

func parseList(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := parseCount(p)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
