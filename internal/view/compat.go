package view

import (
	"fmt"
	"strings"
)

// Radius1Key returns a canonical key for the radius-1 subview of local node
// i within v: node i, its visible neighbors, the connecting edges with both
// port numbers, and all identifiers and labels. For nodes at distance
// strictly less than the view radius this coincides with the node's radius-1
// view in the host graph, which is exactly the object Section 5.1's
// compatibility relation compares.
//
// Neighbors are ordered by the port number at i (the order of i's port
// row), which is canonical because ports at a node are distinct.
func (v *View) Radius1Key(i int) string {
	type arm struct {
		portAtI, portAtW int
		id               int
		label            string
	}
	arms := make([]arm, 0, v.Degree(i))
	for p0, w := range v.Ports.Rows[i] {
		if w < 0 {
			continue
		}
		pWI, _ := v.Port(w, i)
		arms = append(arms, arm{p0 + 1, pWI, v.IDs[w], v.Labels[w]})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "c:i%d;l%q;deg%d", v.IDs[i], v.Labels[i], len(arms))
	for _, a := range arms {
		fmt.Fprintf(&b, "|p%d>%d;i%d;l%q", a.portAtI, a.portAtW, a.id, a.label)
	}
	return b.String()
}

// Compatible reports whether local node u of mu1 is compatible with mu2 in
// the sense of Section 5.1: u carries the identifier of mu2's center, and
// every node of mu1 at distance < r from mu1's center that reappears in mu2
// at distance < r from mu2's center (matched by identifier) has an identical
// radius-1 view in both.
//
// Both views must be non-anonymous (compatibility matches nodes by
// identifier); if u carries identifier 0 the result is false.
func Compatible(mu1 *View, u int, mu2 *View) bool {
	if u < 0 || u >= mu1.N() {
		return false
	}
	if mu1.IDs[u] == 0 || mu1.IDs[u] != mu2.IDs[Center] {
		return false
	}
	for w1 := 0; w1 < mu1.N(); w1++ {
		if mu1.Dist[w1] >= mu1.Radius && mu1.Radius > 0 {
			continue
		}
		w2 := mu2.LocalNodeWithID(mu1.IDs[w1])
		if w2 < 0 {
			continue
		}
		if mu2.Dist[w2] >= mu2.Radius && mu2.Radius > 0 {
			continue
		}
		if mu1.Radius1Key(w1) != mu2.Radius1Key(w2) {
			return false
		}
	}
	return true
}
