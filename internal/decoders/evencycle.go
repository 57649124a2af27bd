package decoders

import (
	"fmt"

	"hidinglcp/internal/core"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/view"
)

// EvenCycle returns the anonymous, strong, and hiding one-round LCP of
// Lemma 4.2 for 2-coloring on the class H2 of even cycles. Instead of a
// node coloring, the certificate reveals a proper 2-EDGE-coloring, which on
// a cycle certifies 2-colorability while hiding the node coloring at every
// node. Certificates are constant-size (6 bits).
//
// The certificate of a degree-2 node u is EvenCycleLabel(q1, c1, q2, c2):
// for each own port j ∈ {1, 2}, the far endpoint's port number qj of the
// edge behind port j together with that edge's color cj.
func EvenCycle() core.Scheme {
	return core.Scheme{
		Name:    "even-cycle",
		Decoder: &evenCycleDecoder{},
		Prover:  &evenCycleProver{},
		Promise: core.Promise{
			Lang: core.TwoCol(),
			InClass: func(g *graph.Graph) bool {
				return g.IsCycleGraph() && g.N()%2 == 0
			},
		},
		CertBits: func(string) int { return 6 },
	}
}

// EvenCycleLabel encodes a certificate of the EvenCycle scheme. qj is the
// far-end port of the edge behind own port j; cj is its color.
func EvenCycleLabel(q1, c1, q2, c2 int) string {
	return fmt.Sprintf("C:%d,%d;%d,%d", q1, c1, q2, c2)
}

// EvenCycleAlphabet returns every well-formed EvenCycle certificate plus one
// malformed symbol, for adversarial labeling enumeration.
func EvenCycleAlphabet() []string {
	var out []string
	for _, q1 := range []int{1, 2} {
		for _, c1 := range []int{0, 1} {
			for _, q2 := range []int{1, 2} {
				for _, c2 := range []int{0, 1} {
					out = append(out, EvenCycleLabel(q1, c1, q2, c2))
				}
			}
		}
	}
	return append(out, "garbage")
}

type cycleCert struct {
	farPort [3]int // farPort[j] for own port j in {1,2}
	color   [3]int // color[j] for own port j in {1,2}
}

var (
	errCycleMalformed = fmt.Errorf("malformed even-cycle certificate")
	errCycleFarPort   = fmt.Errorf("far port out of range (want 1 or 2)")
	errCycleColor     = fmt.Errorf("color out of range (want 0 or 1)")
)

func parseCycleCert(label string) (cycleCert, error) {
	var c cycleCert
	if len(label) < 2 || label[0] != 'C' || label[1] != ':' {
		// Sscanf matches the "C:" literal without space skipping, so these
		// labels are rejects on the slow path too — return a shared error
		// instead of paying the scan-state and Errorf allocations (decoders
		// see arbitrary adversarial labels, so this is a hot reject).
		return c, errCycleMalformed
	}
	q1, c1, q2, c2, ok := parseCycleCertFast(label)
	if !ok {
		var err error
		if q1, c1, q2, c2, err = parseCycleCertSlow(label); err != nil {
			return c, fmt.Errorf("malformed even-cycle certificate (len=%d): %w", len(label), err)
		}
	}
	if (q1 != 1 && q1 != 2) || (q2 != 1 && q2 != 2) {
		return c, errCycleFarPort
	}
	if (c1 != 0 && c1 != 1) || (c2 != 0 && c2 != 1) {
		return c, errCycleColor
	}
	c.farPort[1], c.color[1] = q1, c1
	c.farPort[2], c.color[2] = q2, c2
	return c, nil
}

// parseCycleCertSlow is the fmt.Sscanf fallback for labels outside the
// canonical spelling (signs, spaces, overlong digit runs); it keeps the
// historical accept/reject behavior on adversarial labels bit-identical. It
// lives in its own function so the Sscanf vararg escapes are confined to
// the rare slow calls — inlined at the fast-path call site they would heap-
// allocate all four result ints on every parse.
func parseCycleCertSlow(label string) (q1, c1, q2, c2 int, err error) {
	_, err = fmt.Sscanf(label, "C:%d,%d;%d,%d", &q1, &c1, &q2, &c2)
	return
}

// parseCycleCertFast parses the canonical digit-only spelling
// "C:<d>,<d>;<d>,<d>" — exactly what EvenCycleLabel emits, with trailing
// bytes after the fourth number ignored, matching Sscanf. It reports !ok
// for every other shape (signs, spaces, empty or overlong digit runs),
// deferring those to the fmt.Sscanf slow path so verdicts never diverge
// from the historical parser.
func parseCycleCertFast(label string) (q1, c1, q2, c2 int, ok bool) {
	if len(label) < 2 || label[0] != 'C' || label[1] != ':' {
		return 0, 0, 0, 0, false
	}
	i := 2
	if q1, i, ok = scanCertUint(label, i); !ok {
		return 0, 0, 0, 0, false
	}
	if i >= len(label) || label[i] != ',' {
		return 0, 0, 0, 0, false
	}
	if c1, i, ok = scanCertUint(label, i+1); !ok {
		return 0, 0, 0, 0, false
	}
	if i >= len(label) || label[i] != ';' {
		return 0, 0, 0, 0, false
	}
	if q2, i, ok = scanCertUint(label, i+1); !ok {
		return 0, 0, 0, 0, false
	}
	if i >= len(label) || label[i] != ',' {
		return 0, 0, 0, 0, false
	}
	if c2, _, ok = scanCertUint(label, i+1); !ok {
		return 0, 0, 0, 0, false
	}
	return q1, c1, q2, c2, true
}

// scanCertUint scans a nonempty run of at most 9 decimal digits starting at
// i (longer runs could overflow and are deferred to the slow path).
func scanCertUint(s string, i int) (val, next int, ok bool) {
	start := i
	v := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		if i-start >= 9 {
			return 0, 0, false
		}
		v = v*10 + int(s[i]-'0')
		i++
	}
	if i == start {
		return 0, 0, false
	}
	return v, i, true
}

type evenCycleDecoder struct{}

var _ core.Decoder = (*evenCycleDecoder)(nil)

func (d *evenCycleDecoder) Rounds() int     { return 1 }
func (d *evenCycleDecoder) Anonymous() bool { return true }

// Decide implements Lemma 4.2's decoder: the node must have degree 2, its
// certificate must be well-formed with two differently colored incident
// edges, the claimed far-end ports must match the actual port assignment,
// and each neighbor's certificate must confirm the shared edge with the
// same color.
func (d *evenCycleDecoder) Decide(mu *view.View) bool {
	center := view.Center
	// Degree 2 with the edges behind ports 1 and 2.
	row := mu.Ports.Rows[center]
	if len(row) != 2 || row[0] < 0 || row[1] < 0 {
		return false
	}
	own, err := parseCycleCert(mu.Labels[center])
	if err != nil {
		return false
	}
	if own.color[1] == own.color[2] {
		return false
	}
	for p0, w := range row {
		j := p0 + 1                   // own port of edge {center, w}
		far, ok := mu.Port(w, center) // actual far-end port
		if !ok {
			return false
		}
		if own.farPort[j] != far {
			return false
		}
		nb, err := parseCycleCert(mu.Labels[w])
		if err != nil {
			return false
		}
		// The neighbor's entry for its own port `far` must point back
		// through our port j with the same color.
		if nb.farPort[far] != j || nb.color[far] != own.color[j] {
			return false
		}
	}
	return true
}

type evenCycleProver struct{}

var _ core.Prover = (*evenCycleProver)(nil)

// Certify walks the cycle once, alternately 2-edge-colors it, and encodes
// each node's two incident edge colors together with the far-end ports.
func (p *evenCycleProver) Certify(inst core.Instance) ([]string, error) {
	g := inst.G
	if !g.IsCycleGraph() {
		return nil, fmt.Errorf("graph is not a cycle: %v", g)
	}
	if g.N()%2 != 0 {
		return nil, fmt.Errorf("cycle length %d is odd (not 2-colorable)", g.N())
	}
	// Walk the cycle collecting edges in traversal order.
	edgeColor := make(map[[2]int]int) // normalized edge -> color
	prev, cur := -1, 0
	for i := 0; i < g.N(); i++ {
		next := -1
		for _, w := range g.Neighbors(cur) {
			if w != prev {
				next = w
				break
			}
		}
		if next == -1 { // n == 2 cannot happen in a simple cycle
			return nil, fmt.Errorf("cycle walk stuck at node %d", cur)
		}
		edgeColor[normEdge(cur, next)] = i % 2
		prev, cur = cur, next
	}
	labels := make([]string, g.N())
	for v := 0; v < g.N(); v++ {
		var q, c [3]int
		for p0, w := range inst.Prt.Row(v) {
			q[p0+1] = inst.Prt.MustPort(w, v)
			c[p0+1] = edgeColor[normEdge(v, w)]
		}
		labels[v] = EvenCycleLabel(q[1], c[1], q[2], c[2])
	}
	return labels, nil
}

func normEdge(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}
