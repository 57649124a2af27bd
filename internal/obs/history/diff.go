package history

import (
	"fmt"
	"sort"
	"strings"

	"hidinglcp/internal/obs"
	"hidinglcp/internal/regress"
)

// comparableValue reduces a snapshot to the number the gate compares:
// counters and gauges by value, histograms by observation count (durations
// themselves are machine-speed noise; whether the code observed the same
// number of times is not).
func comparableValue(s obs.MetricSnapshot) (float64, bool) {
	switch s.Kind {
	case obs.KindCounter, obs.KindGauge:
		return float64(s.Value), true
	case obs.KindHistogram:
		return float64(s.Count), true
	}
	return 0, false
}

// samples turns a manifest's comparable metrics into regress samples.
func samples(m *obs.RunManifest) []regress.Sample {
	var out []regress.Sample
	for _, s := range m.Metrics {
		if v, ok := comparableValue(s); ok {
			out = append(out, regress.Sample{Name: s.Name, Value: v})
		}
	}
	return out
}

// values maps a manifest's comparable metrics by name.
func values(m *obs.RunManifest) map[string]float64 {
	idx := make(map[string]float64, len(m.Metrics))
	for _, s := range samples(m) {
		idx[s.Name] = s.Value
	}
	return idx
}

// Diff compares the latest manifest against the baseline under the
// thresholds (see regress.Compare) and appends the invariant checks on the
// latest run to the regressions.
func Diff(base, latest *obs.RunManifest, th regress.Thresholds) (*regress.Report, error) {
	rep, err := regress.Compare(samples(base), samples(latest), th)
	if err != nil {
		return nil, err
	}
	rep.Title = "Run regression report: " + latest.Tool
	rep.Regressions = append(rep.Regressions, CheckInvariants(latest)...)
	return rep, nil
}

// Invariants the pipelines promise, checked on every gated run (not just
// against a baseline): a violated invariant means the run itself is
// internally inconsistent, which no ratio threshold can excuse. Each check
// fires only when all of its metrics are present, so manifests from tools
// that never touch a subsystem pass vacuously.
//
//   - extracted = hits + misses (§8): every extracted view either interned
//     a new equivalence class or hit an existing one.
//   - decode calls = inner + memo hits (§8): every decoder call on a view
//     class either ran the decoder or hit the memo. The split depends on
//     scheduling, so the thresholds may skip these counters; this check
//     still holds them exactly.
//   - verdict conservation (§10): every node of a fault-injected run issues
//     exactly one verdict — accepted + rejected + crashed = nodes.
//   - crash accounting (§10): every crash the scheduler injected inside the
//     horizon is accounted by exactly one crashed verdict.
func CheckInvariants(m *obs.RunManifest) []regress.Regression {
	vals := values(m)
	sum := func(names []string) (float64, bool) {
		total := 0.0
		for _, n := range names {
			v, ok := vals[n]
			if !ok {
				return 0, false
			}
			total += v
		}
		return total, true
	}
	var out []regress.Regression
	for _, c := range []struct {
		name, what string // metric name the violation reports under; its label
		lhs, rhs   []string
	}{
		{"nbhd.views.extracted", "interning conservation",
			[]string{"nbhd.views.extracted"}, []string{"nbhd.intern.hits", "nbhd.intern.misses"}},
		{"nbhd.decode.calls", "decode conservation",
			[]string{"nbhd.decode.calls"}, []string{"nbhd.decode.inner", "nbhd.decode.memo_hits"}},
		{"sim.verdicts", "verdict conservation",
			[]string{"sim.verdicts.accepted", "sim.verdicts.rejected", "sim.verdicts.crashed"}, []string{"sim.nodes"}},
		{"sim.verdicts.crashed", "crash accounting",
			[]string{"sim.verdicts.crashed"}, []string{"sim.crashed"}},
	} {
		lhs, lok := sum(c.lhs)
		rhs, rok := sum(c.rhs)
		if lok && rok && lhs != rhs {
			out = append(out, regress.Regression{
				Metric: c.name, Reason: "invariant", Base: rhs, Latest: lhs,
				Detail: fmt.Sprintf("%s violated: %s != %s (%.0f != %.0f)", c.what,
					strings.Join(c.lhs, " + "), strings.Join(c.rhs, " + "), lhs, rhs),
			})
		}
	}
	return out
}

// AddTrend fills the report's trend table from a history window (oldest
// first, the latest run included): one row per metric present in the latest
// run, one value per run (absent runs contribute 0).
func AddTrend(r *regress.Report, window []Entry) {
	if len(window) == 0 {
		return
	}
	runs := make([]map[string]float64, len(window))
	for i, e := range window {
		runs[i] = values(e.Manifest)
	}
	names := make([]string, 0, len(runs[len(runs)-1]))
	for name := range runs[len(runs)-1] {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		row := regress.TrendRow{Metric: name, Values: make([]float64, len(runs))}
		for i, run := range runs {
			row.Values[i] = run[name]
		}
		r.Trend = append(r.Trend, row)
	}
}
