// Package certflow exercises the hiding-contract taint analyzer: flows
// from certificate sources (view labels, canonical keys, Certify results)
// into observability and logging sinks, with and without sanitization.
package certflow

import (
	"fmt"
	"strings"

	"core"
	"obs"
	"view"
)

// directFieldLeak: a raw label read reaches a span attribute.
func directFieldLeak(sp *obs.Span, mu *view.View) {
	sp.SetAttr("first", mu.Labels[0]) // want "certificate-tainted value flows into observability sink obs.Span.SetAttr"
}

// keyLeak: the canonical key embeds label bytes; printing it is a leak.
func keyLeak(mu *view.View) {
	fmt.Println(mu.Key()) // want "certificate-tainted value flows into fmt.Println output"
}

// certifyLeak: prover output is a certificate assignment; an error built
// from it would cross the CLI boundary onto stderr.
func certifyLeak(p core.Prover, inst core.Instance) error {
	labels, _ := p.Certify(inst)
	return fmt.Errorf("bad labels %v", labels) // want "certificate-tainted value flows into an error message"
}

// formattedLeak: taint survives string formatting and concatenation.
func formattedLeak(sc obs.Scope, l core.Labeled) {
	detail := "labels: " + strings.Join(l.Labels, ",")
	sc.Event("dump", fmt.Sprintf("got %s", detail)) // want "certificate-tainted value flows into observability sink obs.Scope.Event"
}

// helper forwards its argument into a manifest field; certflow summarizes
// the flow and reports at the tainted call site.
func helper(m *obs.RunManifest, s string) {
	m.SetConfig("labels", s)
}

func interproceduralLeak(m *obs.RunManifest, mu *view.View) {
	helper(m, mu.Labels[0]) // want "certificate-tainted value flows into call to helper"
}

// closureLeak: a tainted callback handed to the progress reporter leaks
// on every status line.
func closureLeak(p *obs.Progress, mu *view.View) {
	p.SetExtra(func() string { return mu.Key() }) // want "certificate-tainted value flows into observability sink obs.Progress.SetExtra"
}

// panicLeak: the panic argument lands on stderr with the crash dump.
func panicLeak(mu *view.View) {
	panic("bad view " + mu.Labels[0]) // want "certificate-tainted value flows into panic"
}

// redactedFlow is the sanctioned shape: lengths and digests only.
func redactedFlow(sp *obs.Span, sc obs.Scope, mu *view.View, l core.Labeled) {
	sp.SetAttr("labels", obs.RedactStrings(mu.Labels))
	sp.SetAttr("key", mu.KeyDigest())
	sc.Event("sizes", fmt.Sprintf("n=%d first=%d", len(l.Labels), len(mu.Labels[0])))
}

// countsAreClean: numeric conversions and indices carry no bytes.
func countsAreClean(sc obs.Scope, l core.Labeled) {
	total := 0
	for i, s := range l.Labels {
		total += i + len(s)
	}
	sc.Event("total", fmt.Sprint(total))
}

// errorsAreClean: an error that got past construction carries no label
// bytes (certflow flags the construction, not the hand-off).
func errorsAreClean(p core.Prover, inst core.Instance) {
	_, err := p.Certify(inst)
	if err != nil {
		fmt.Println(err)
	}
}

// gathered returns a certificate assignment next to a label-free
// summary, and pair returns its arguments in order.
func gathered(l core.Labeled, name string) ([]string, string) {
	return l.Labels, "gathered " + name
}

func pair(a, b string) (string, string) { return a, b }

// resultsStayApart: a multi-value call taints only the variables its
// tainted results land in, whether the taint comes from a source in the
// callee or from an argument.
func resultsStayApart(sc obs.Scope, l core.Labeled, mu *view.View) {
	labels, summary := gathered(l, "views")
	sc.Event("summary", summary)
	sc.Event("labels", strings.Join(labels, ",")) // want "certificate-tainted value flows into observability sink obs.Scope.Event"
	first, name := pair(mu.Labels[0], "center")
	sc.Event("name", name)
	sc.Event("first", first) // want "certificate-tainted value flows into observability sink obs.Scope.Event"
}

// labeledView writes the labels into a fresh view one element at a time.
// Only the view's Labels field is tainted: its other fields stay clean...
func labeledView(l core.Labeled) *view.View {
	mu := &view.View{Radius: 1}
	mu.Labels = make([]string, len(l.Labels))
	for i := range l.Labels {
		mu.Labels[i] = l.Labels[i]
	}
	fmt.Println(mu.Radius)
	return mu
}

// ...but the view returned whole carries the labels to the caller's sink.
func fieldTaintLeaks(l core.Labeled) {
	fmt.Println(labeledView(l)) // want "certificate-tainted value flows into fmt.Println output"
}

// viewHolder keeps a view two selectors below a local variable.
type viewHolder struct {
	v    view.View
	name string
}

// nestedFieldLeaks: labels written into h.v.Labels travel with h.v, the
// intermediate value, into a sink...
func nestedFieldLeaks(l core.Labeled) {
	var h viewHolder
	h.v.Labels = l.Labels
	fmt.Println(h.v) // want "certificate-tainted value flows into fmt.Println output"
}

// ...while the fields beside the written one stay clean.
func nestedSiblingsClean(l core.Labeled) {
	h := viewHolder{name: "holder"}
	h.v.Labels = l.Labels
	fmt.Println(h.name, h.v.Radius)
}

// builderIsNotASink: fmt.Fprintf into a strings.Builder constructs a
// string; the taint follows the builder instead of being reported...
func builderIsNotASink(mu *view.View) string {
	var b strings.Builder
	fmt.Fprintf(&b, "key=%s", mu.Key())
	return b.String()
}

// ...and reading the builder back out re-surfaces it at a real sink.
func builderTaintResurfaces(mu *view.View) {
	var b strings.Builder
	fmt.Fprintf(&b, "key=%s", mu.Key())
	fmt.Println(b.String()) // want "certificate-tainted value flows into fmt.Println output"
}

// suppressed: the operator explicitly asked for the raw bytes.
func suppressed(mu *view.View) {
	//lint:ignore certflow fixture demonstrates a documented operator-requested dump
	fmt.Println(mu.Labels[0])
}
