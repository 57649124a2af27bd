// Package core implements the locally checkable proof (LCP) model of
// Section 2 of the paper: distributed languages, labeled instances
// (G, prt, Id, ℓ), r-round binary decoders, provers, and mechanical checkers
// for the completeness, soundness, strong soundness (Section 2.3),
// anonymity, and order-invariance properties. The hiding property
// (Section 2.4) is characterized through the accepting neighborhood graph
// and lives in package nbhd.
package core

import (
	"fmt"

	"hidinglcp/internal/graph"
	"hidinglcp/internal/view"
)

// Instance is an unlabeled network: a graph together with a port assignment,
// an optional identifier assignment (nil = anonymous network), and the
// common identifier bound N = poly(n) known to all nodes.
type Instance struct {
	G      *graph.Graph
	Prt    *graph.Ports
	IDs    graph.IDs // nil for anonymous instances
	NBound int
}

// NewInstance wraps g with default ports, sequential identifiers, and
// NBound = n.
func NewInstance(g *graph.Graph) Instance {
	return Instance{
		G:      g,
		Prt:    graph.DefaultPorts(g),
		IDs:    graph.SequentialIDs(g.N()),
		NBound: g.N(),
	}
}

// NewAnonymousInstance wraps g with default ports and no identifiers.
func NewAnonymousInstance(g *graph.Graph) Instance {
	return Instance{G: g, Prt: graph.DefaultPorts(g), NBound: g.N()}
}

// WithIDs returns a copy of inst using the given identifier assignment and
// bound.
func (inst Instance) WithIDs(ids graph.IDs, nBound int) Instance {
	inst.IDs = ids
	inst.NBound = nBound
	return inst
}

// Validate checks internal consistency of the instance.
func (inst Instance) Validate() error {
	if inst.G == nil {
		return fmt.Errorf("instance has no graph")
	}
	if inst.Prt == nil {
		return fmt.Errorf("instance has no port assignment")
	}
	if err := inst.Prt.Validate(inst.G); err != nil {
		return fmt.Errorf("ports: %w", err)
	}
	if inst.IDs != nil {
		if err := inst.IDs.Validate(inst.G.N(), inst.NBound); err != nil {
			return fmt.Errorf("identifiers: %w", err)
		}
	}
	return nil
}

// Representatives returns the first instance of each port-preserving
// isomorphism class of insts, in input order: two instances are in one
// class when a bijection of their nodes preserves edges, ports,
// identifiers and NBound (graph.Ports.AppendForm). Isomorphic instances
// have the same labelings up to that bijection, hence the same views,
// view edges and soundness verdicts, so a sweep over every labeling of
// the representatives covers the same V(D,n) and the same violations as
// one over insts. Disconnected instances, and instances without a port
// assignment, are never merged.
func Representatives(insts []Instance) []Instance {
	out := make([]Instance, 0, len(insts))
	seen := make(map[string]bool, len(insts))
	var form []byte
	for _, inst := range insts {
		if inst.Prt != nil {
			var ok bool
			form, ok = inst.Prt.AppendForm(form[:0], inst.IDs, inst.NBound)
			if ok {
				if seen[string(form)] {
					continue
				}
				seen[string(form)] = true
			}
		}
		out = append(out, inst)
	}
	return out
}

// Labeled is an instance with a certificate assignment: the labeled
// yes-instance tuple (G, prt, Id, ℓ) of Section 3 when the labels are
// accepted everywhere.
type Labeled struct {
	Instance
	Labels []string
}

// NewLabeled attaches labels to inst. It returns an error if the labeling
// does not cover every node.
func NewLabeled(inst Instance, labels []string) (Labeled, error) {
	if len(labels) != inst.G.N() {
		return Labeled{}, fmt.Errorf("labeling covers %d nodes, graph has %d", len(labels), inst.G.N())
	}
	return Labeled{Instance: inst, Labels: labels}, nil
}

// MustNewLabeled is NewLabeled but panics on error.
func MustNewLabeled(inst Instance, labels []string) Labeled {
	l, err := NewLabeled(inst, labels)
	if err != nil {
		panic(fmt.Sprintf("core.MustNewLabeled: %v", err))
	}
	return l
}

// ViewOf extracts the radius-r view of node v in the labeled instance.
func (l Labeled) ViewOf(v, r int) (*view.View, error) {
	return view.Extract(l.G, l.Prt, l.IDs, l.Labels, l.NBound, v, r)
}

// Views extracts the radius-r views of all nodes, sharing one extraction
// scratch across the loop. The views are owned by the caller; a caller that
// reads each view once should use EachView.
func (l Labeled) Views(r int) ([]*view.View, error) {
	var ex view.Extractor
	out := make([]*view.View, l.G.N())
	for v := 0; v < l.G.N(); v++ {
		mu, err := ex.Extract(l.G, l.Prt, l.IDs, l.Labels, l.NBound, v, r)
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", v, err)
		}
		out[v] = mu
	}
	return out, nil
}

// EachView calls fn with the radius-r view of every node in node order,
// stopping at the first error fn returns. With anonymous set, the views
// carry no identifiers, as Anonymize would leave them. It is the walk of
// the decide-and-discard callers (Run, and through it the checks), which
// read each view once: the view is one scratch, refilled for the next node
// after fn returns, so fn must not retain it or any of its slices.
func (l Labeled) EachView(r int, anonymous bool, fn func(v int, mu *view.View) error) error {
	n := l.G.N()
	if len(l.Labels) != n {
		return fmt.Errorf("labeling covers %d nodes, graph has %d", len(l.Labels), n)
	}
	ids := l.IDs
	if anonymous {
		ids = nil
	}
	var (
		ex view.Extractor
		t  view.Template
		mu view.View
	)
	for v := 0; v < n; v++ {
		if err := ex.TemplateInto(&t, l.G, l.Prt, ids, l.NBound, v, r, nil); err != nil {
			return fmt.Errorf("node %d: %w", v, err)
		}
		if err := fn(v, t.InstantiateInto(&mu, l.Labels)); err != nil {
			return err
		}
	}
	return nil
}
