package forgetful

import (
	"fmt"
	"sort"

	"hidinglcp/internal/core"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/view"
)

// Anchors is the per-identifier view family of the realizability definition
// in Section 5.1: Anchors[i] is the view μ_i whose center carries identifier
// i, with which every occurrence of identifier i in the realized subgraph
// must be compatible.
type Anchors map[int]*view.View

// NewAnchors indexes views by their center identifiers. It returns an error
// on anonymous views or duplicate center identifiers.
func NewAnchors(views ...*view.View) (Anchors, error) {
	a := make(Anchors, len(views))
	for _, mu := range views {
		id := mu.IDs[view.Center]
		if id == 0 {
			return nil, fmt.Errorf("anchor view has no center identifier")
		}
		if _, dup := a[id]; dup {
			return nil, fmt.Errorf("duplicate anchor for identifier %d", id)
		}
		a[id] = mu
	}
	return a, nil
}

// CheckRealizable verifies the realizability condition of Section 5.1 for a
// collection of views H: for every identifier i appearing in a view of H
// with an anchor, that occurrence must be compatible with the anchor.
// Identifiers without anchors make the collection non-realizable.
func CheckRealizable(h []*view.View, anchors Anchors) error {
	for hi, mu := range h {
		for local, id := range mu.IDs {
			if id == 0 {
				return fmt.Errorf("view %d of H is anonymous", hi)
			}
			anchor, ok := anchors[id]
			if !ok {
				return fmt.Errorf("identifier %d (view %d of H) has no anchor", id, hi)
			}
			if !view.Compatible(mu, local, anchor) {
				return fmt.Errorf("identifier %d in view %d of H is incompatible with its anchor", id, hi)
			}
		}
	}
	return nil
}

// BuildGBad performs the Lemma 5.1 construction: it assembles the instance
// G_bad whose node set is the anchor identifiers, with an edge {i, j}
// whenever some anchor contains an edge between nodes carrying identifiers
// i and j, and with ports and labels read off the anchors. The returned map
// sends each identifier to its node in G_bad.
//
// The construction validates the consistency the paper's compatibility
// notion guarantees (and that radius-1 anchors may lack): edge symmetry
// between anchors, agreement of labels, and per-node port bijectivity. Any
// inconsistency is reported as an error.
func BuildGBad(anchors Anchors, nBound int) (core.Labeled, map[int]int, error) {
	var fail core.Labeled
	// Deterministic node order: sorted identifiers.
	ids := make([]int, 0, len(anchors))
	for id := range anchors {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	nodeOf := make(map[int]int, len(ids))
	for i, id := range ids {
		nodeOf[id] = i
	}

	// Collect each anchor's center arms: neighbor identifier -> port.
	type arm struct{ port int }
	arms := make(map[int]map[int]arm, len(anchors)) // center id -> nb id -> arm
	for id, mu := range anchors {
		if got := mu.IDs[view.Center]; got != id {
			return fail, nil, fmt.Errorf("anchor for %d has center identifier %d", id, got)
		}
		m := make(map[int]arm)
		for p0, w := range mu.Ports.Rows[view.Center] {
			if w < 0 {
				continue
			}
			nbID := mu.IDs[w]
			if nbID == 0 {
				return fail, nil, fmt.Errorf("anchor %d has an anonymous neighbor", id)
			}
			if _, ok := anchors[nbID]; !ok {
				return fail, nil, fmt.Errorf("anchor %d names neighbor %d which has no anchor", id, nbID)
			}
			if _, dup := m[nbID]; dup {
				return fail, nil, fmt.Errorf("anchor %d has two edges toward identifier %d", id, nbID)
			}
			m[nbID] = arm{port: p0 + 1}
		}
		arms[id] = m
	}

	// Edge symmetry: i names j iff j names i.
	for i, m := range arms {
		for j := range m {
			if _, ok := arms[j][i]; !ok {
				return fail, nil, fmt.Errorf("anchor %d names %d but not vice versa", i, j)
			}
		}
	}

	g := graph.New(len(ids))
	for i, m := range arms {
		for j := range m {
			if nodeOf[i] < nodeOf[j] {
				if err := g.AddEdge(nodeOf[i], nodeOf[j]); err != nil {
					return fail, nil, fmt.Errorf("adding edge {%d,%d}: %w", i, j, err)
				}
			}
		}
	}

	// Ports: each anchor dictates its own node's ports. Validate they form
	// a bijection onto [deg].
	perm := make([][]int, len(ids))
	for i, id := range ids {
		deg := g.Degree(i)
		perm[i] = make([]int, deg)
		seen := make([]bool, deg+1)
		nbs := g.Neighbors(i) // sorted node indices
		for idx, nbNode := range nbs {
			nbID := ids[nbNode]
			p := arms[id][nbID].port
			if p < 1 || p > deg || seen[p] {
				return fail, nil, fmt.Errorf("anchor %d assigns invalid/duplicate port %d (degree %d)", id, p, deg)
			}
			seen[p] = true
			perm[i][p-1] = idx
		}
	}
	prt, err := graph.PortsFromPerm(g, perm)
	if err != nil {
		return fail, nil, fmt.Errorf("assembling ports: %w", err)
	}

	labels := make([]string, len(ids))
	idAssign := make(graph.IDs, len(ids))
	for i, id := range ids {
		labels[i] = anchors[id].Labels[view.Center]
		idAssign[i] = id
	}
	if nBound < idAssign.Max() {
		nBound = idAssign.Max()
	}
	inst := core.Instance{G: g, Prt: prt, IDs: idAssign, NBound: nBound}
	if err := inst.Validate(); err != nil {
		return fail, nil, fmt.Errorf("assembled instance invalid: %w", err)
	}
	l, err := core.NewLabeled(inst, labels)
	if err != nil {
		return fail, nil, err
	}
	return l, nodeOf, nil
}

// VerifyRealization extracts the radius-r views of G_bad and reports, per
// identifier, whether the realized view equals its anchor. Full equality
// holds when the anchors came from mutually compatible radius-r views of
// rich enough instances (Lemma 5.1); radius-1 anchors from conflicting
// hosts may disagree on far-end structure while a port-oblivious decoder
// still accepts.
func VerifyRealization(l core.Labeled, nodeOf map[int]int, anchors Anchors, r int) (map[int]bool, error) {
	match := make(map[int]bool, len(anchors))
	for id, mu := range anchors {
		got, err := l.ViewOf(nodeOf[id], r)
		if err != nil {
			return nil, err
		}
		// NBound may legitimately differ between anchor hosts and G_bad;
		// compare with the anchor's bound.
		got.NBound = mu.NBound
		match[id] = got.Equal(mu)
	}
	return match, nil
}
