// Package obs is a minimal replica of hidinglcp/internal/obs for analyzer
// fixtures: the obspurity analyzer matches on the package name "obs", so
// fixtures stay self-contained.
package obs

// Counter mirrors the real monotonically increasing counter.
type Counter struct{ v int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds d.
func (c *Counter) Add(d int64) { c.v += d }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// Scope mirrors the real metric-handle factory.
type Scope struct{}

// Counter returns the named counter.
func (s Scope) Counter(name string) *Counter { return &Counter{} }

// Event stands for any obs method taking strings; a certflow sink.
func (s Scope) Event(name, detail string) {}

// Span mirrors the real trace span.
type Span struct{}

// Span opens a child span.
func (s Scope) Span(name string) *Span { return &Span{} }

// SetAttr attaches an attribute to the span; a certflow sink.
func (sp *Span) SetAttr(key, value string) {}

// RunManifest mirrors the real JSON run manifest.
type RunManifest struct{}

// SetConfig records a config key; a certflow sink.
func (m *RunManifest) SetConfig(key, value string) {}

// Progress mirrors the real progress reporter.
type Progress struct{}

// SetExtra installs a status-line callback; a certflow sink.
func (p *Progress) SetExtra(f func() string) {}

// RedactString mirrors the real redactor; a certflow sanitizer.
func RedactString(s string) string { return "" }

// RedactStrings mirrors the real labeling redactor; a certflow sanitizer.
func RedactStrings(ss []string) string { return "" }

// Now mirrors the real package's sanctioned clock read.
func Now() int64 { return 0 }
