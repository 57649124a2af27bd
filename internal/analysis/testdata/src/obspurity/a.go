// Fixture for the obspurity analyzer: clock reads and calls into the obs
// package inside Decide bodies are seeded violations; the same calls
// outside Decide, time conversions, and //lint:ignore'd counting wrappers
// stay clean.
package obspurity

import (
	"time"

	"obs"
	"obs/export"
	"view"
)

// badClock times its own decision — the verdict depends on the wall clock.
type badClock struct{ budget time.Duration }

func (d *badClock) Rounds() int     { return 1 }
func (d *badClock) Anonymous() bool { return true }

func (d *badClock) Decide(mu *view.View) bool {
	t0 := time.Now() // want "Decide must not read the clock: call to time.Now"
	for _, nbs := range mu.Adj {
		_ = nbs
	}
	return time.Since(t0) < d.budget // want "Decide must not read the clock: call to time.Since"
}

// badMetrics reads and writes live counters — the verdict depends on how
// often the pipeline has run.
type badMetrics struct {
	hits *obs.Counter
	sc   obs.Scope
}

func (d *badMetrics) Rounds() int     { return 1 }
func (d *badMetrics) Anonymous() bool { return true }

func (d *badMetrics) Decide(mu *view.View) bool {
	d.hits.Inc() // want "Decide must not call into the observability layer: d.hits.Inc"
	if obs.Now() > 0 { // want "Decide must not call into the observability layer: obs.Now"
		return false
	}
	d.sc.Counter("bad").Add(1) // want "layer: d.sc.Counter [(]metrics" "layer: d.sc.Counter[(]...[)].Add"
	return d.hits.Value()%2 == 0 // want "Decide must not call into the observability layer: d.hits.Value"
}

// Function literals with the Decide signature are held to the same
// contract.
var _ = func(mu *view.View) bool {
	return time.Now().Unix()%2 == 0 // want "Decide must not read the clock: call to time.Now"
}

// suppressedWrapper mirrors core.InstrumentDecoder: counting around a
// delegated verdict is sanctioned behind an explicit directive.
type suppressedWrapper struct{ calls *obs.Counter }

func (d *suppressedWrapper) Rounds() int     { return 1 }
func (d *suppressedWrapper) Anonymous() bool { return true }

func (d *suppressedWrapper) Decide(mu *view.View) bool {
	//lint:ignore obspurity counting wrapper: the verdict is delegated unchanged
	d.calls.Inc()
	return mu.N() > 0
}

// goodPure converts durations and counts locally; neither is a clock read
// nor an obs call.
type goodPure struct{ cutoff time.Duration }

func (d *goodPure) Rounds() int     { return 1 }
func (d *goodPure) Anonymous() bool { return true }

func (d *goodPure) Decide(mu *view.View) bool {
	local := 0
	for i := 0; i < mu.N(); i++ {
		local += mu.Degree(i)
	}
	return time.Duration(local)*time.Millisecond < d.cutoff
}

// badServer drives the telemetry server from its decision — and reads the
// server's address back into the verdict. Both directions are banned: the
// export subpackage is part of the observability layer.
type badServer struct{ srv *export.Server }

func (d *badServer) Rounds() int     { return 1 }
func (d *badServer) Anonymous() bool { return true }

func (d *badServer) Decide(mu *view.View) bool {
	d.srv.MarkReady()                    // want "Decide must not call into the observability layer: d.srv.MarkReady"
	if export.WritePrometheus() != nil { // want "Decide must not call into the observability layer: export.WritePrometheus"
		return false
	}
	return d.srv.Addr() != "" // want "Decide must not call into the observability layer: d.srv.Addr"
}

// reportOutside is free to use the clock and metrics: it does not have the
// Decide signature, so it is outside the purity contract.
func reportOutside(c *obs.Counter) time.Time {
	c.Inc()
	_ = obs.Now()
	_, _ = export.Serve(":0")
	return time.Now()
}
