package history

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"hidinglcp/internal/obs"
)

// Limits bounds the acceptable latest/baseline ratio for one metric. A zero
// ratio field means "no limit" (or, inside a per-metric override, "inherit
// the default"). Skip excludes a metric entirely — the escape hatch for
// scheduling-sensitive counters (work-stealing tallies, prune counts) whose
// value is a function of GOMAXPROCS, not of the code under test.
type Limits struct {
	MaxRatio float64 `json:"max_ratio,omitempty"`
	MinRatio float64 `json:"min_ratio,omitempty"`
	Skip     bool    `json:"skip,omitempty"`
}

// Thresholds is a regression policy for manifest diffs: default limits plus
// per-metric overrides matched by exact metric name.
type Thresholds struct {
	Default   Limits            `json:"default"`
	PerMetric map[string]Limits `json:"per_metric,omitempty"`
}

// DefaultThresholds allows ±10% drift on every comparable metric. The
// pipelines' headline counters (instances enumerated, views extracted,
// intern classes) are deterministic for a pinned configuration, so even the
// default catches real regressions; scheduling-sensitive metrics should be
// Skip-listed per deployment.
func DefaultThresholds() Thresholds {
	return Thresholds{Default: Limits{MaxRatio: 1.1, MinRatio: 0.9}}
}

// limitsFor resolves the effective limits for one metric: per-metric fields
// override the default field-wise; zero fields inherit (Skip never
// inherits — it is only meaningful as an explicit override).
func (t Thresholds) limitsFor(name string) Limits {
	l := t.Default
	if o, ok := t.PerMetric[name]; ok {
		if o.MaxRatio != 0 {
			l.MaxRatio = o.MaxRatio
		}
		if o.MinRatio != 0 {
			l.MinRatio = o.MinRatio
		}
		l.Skip = o.Skip
	}
	return l
}

// Regression is one exceeded limit, a metric that vanished from the latest
// run (Reason "missing"), or a violated cross-metric invariant (Reason
// "invariant").
type Regression struct {
	Metric string  `json:"metric"`
	Reason string  `json:"reason"` // "ratio", "missing", "invariant"
	Base   float64 `json:"base,omitempty"`
	Latest float64 `json:"latest,omitempty"`
	Ratio  float64 `json:"ratio,omitempty"`
	Limit  float64 `json:"limit,omitempty"`
	Detail string  `json:"detail,omitempty"`
}

func (r Regression) String() string {
	switch r.Reason {
	case "missing":
		return fmt.Sprintf("%s: present in baseline but missing from latest run", r.Metric)
	case "invariant":
		return fmt.Sprintf("%s: %s", r.Metric, r.Detail)
	default:
		return fmt.Sprintf("%s: %.0f -> %.0f (%.3fx outside limit %.3fx)",
			r.Metric, r.Base, r.Latest, r.Ratio, r.Limit)
	}
}

// Row is one compared metric in a report, regression or not.
type Row struct {
	Metric  string  `json:"metric"`
	Base    float64 `json:"base"`
	Latest  float64 `json:"latest"`
	Ratio   float64 `json:"ratio"`
	Verdict string  `json:"verdict"` // "ok", "skip", "new", "missing", "REGRESS"
}

// Report is the outcome of one latest-vs-baseline diff plus the invariant
// checks on the latest run; it serializes as the JSON report and renders as
// the Markdown trend report.
type Report struct {
	Tool        string       `json:"tool"`
	BaseStart   int64        `json:"base_start_unix_ns"`
	LatestStart int64        `json:"latest_start_unix_ns"`
	Rows        []Row        `json:"rows"`
	Regressions []Regression `json:"regressions,omitempty"`
	Trend       []TrendRow   `json:"trend,omitempty"`
}

// TrendRow tracks one metric across the last N runs, oldest first.
type TrendRow struct {
	Metric string    `json:"metric"`
	Values []float64 `json:"values"`
}

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

// metricIndex maps a manifest's metrics by name.
func metricIndex(m *obs.RunManifest) map[string]obs.MetricSnapshot {
	idx := make(map[string]obs.MetricSnapshot, len(m.Metrics))
	for _, s := range m.Metrics {
		idx[s.Name] = s
	}
	return idx
}

// Diff compares the latest manifest against the baseline under the
// thresholds and runs the invariant checks on the latest run. Metrics only
// in the latest run are new and never regress; metrics only in the baseline
// regress with Reason "missing", so a gate cannot pass by deleting its
// instrumentation.
func Diff(base, latest *obs.RunManifest, th Thresholds) *Report {
	rep := &Report{
		Tool:        latest.Tool,
		BaseStart:   base.StartUnixNS,
		LatestStart: latest.StartUnixNS,
	}
	latestIdx := metricIndex(latest)
	baseNames := make([]string, 0, len(base.Metrics))
	baseIdx := metricIndex(base)
	for name := range baseIdx {
		baseNames = append(baseNames, name)
	}
	sort.Strings(baseNames)

	for _, name := range baseNames {
		bs := baseIdx[name]
		bv, ok := comparableValue(bs)
		if !ok {
			continue
		}
		lim := th.limitsFor(name)
		ls, present := latestIdx[name]
		if !present {
			if lim.Skip {
				rep.Rows = append(rep.Rows, Row{Metric: name, Base: bv, Verdict: "skip"})
				continue
			}
			rep.Rows = append(rep.Rows, Row{Metric: name, Base: bv, Verdict: "missing"})
			rep.Regressions = append(rep.Regressions, Regression{Metric: name, Reason: "missing", Base: bv})
			continue
		}
		lv, _ := comparableValue(ls)
		row := Row{Metric: name, Base: bv, Latest: lv}
		switch {
		case lim.Skip:
			row.Verdict = "skip"
		case bv == 0 && lv == 0:
			row.Verdict = "ok"
		case bv == 0:
			// No baseline signal to ratio against; growth from zero is a
			// change worth flagging only via explicit per-metric limits.
			row.Ratio = 0
			row.Verdict = "ok"
		default:
			row.Ratio = lv / bv
			row.Verdict = "ok"
			if lim.MaxRatio != 0 && row.Ratio > lim.MaxRatio {
				row.Verdict = "REGRESS"
				rep.Regressions = append(rep.Regressions, Regression{
					Metric: name, Reason: "ratio", Base: bv, Latest: lv, Ratio: row.Ratio, Limit: lim.MaxRatio,
				})
			} else if lim.MinRatio != 0 && row.Ratio < lim.MinRatio {
				row.Verdict = "REGRESS"
				rep.Regressions = append(rep.Regressions, Regression{
					Metric: name, Reason: "ratio", Base: bv, Latest: lv, Ratio: row.Ratio, Limit: lim.MinRatio,
				})
			}
		}
		rep.Rows = append(rep.Rows, row)
	}
	for _, s := range latest.Metrics {
		if _, ok := baseIdx[s.Name]; ok {
			continue
		}
		if lv, ok := comparableValue(s); ok {
			rep.Rows = append(rep.Rows, Row{Metric: s.Name, Latest: lv, Verdict: "new"})
		}
	}
	rep.Regressions = append(rep.Regressions, CheckInvariants(latest)...)
	return rep
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
func CheckInvariants(m *obs.RunManifest) []Regression {
	idx := metricIndex(m)
	val := func(name string) (float64, bool) {
		s, ok := idx[name]
		if !ok {
			return 0, false
		}
		v, ok := comparableValue(s)
		return v, ok
	}
	type check struct {
		name   string // metric name the violation reports under
		lhs    []string
		rhs    []string
		detail string
	}
	checks := []check{
		{
			name: "nbhd.views.extracted",
			lhs:  []string{"nbhd.views.extracted"},
			rhs:  []string{"nbhd.intern.hits", "nbhd.intern.misses"},
			detail: "interning conservation violated: " +
				"nbhd.views.extracted != nbhd.intern.hits + nbhd.intern.misses",
		},
		{
			name: "nbhd.decode.calls",
			lhs:  []string{"nbhd.decode.calls"},
			rhs:  []string{"nbhd.decode.inner", "nbhd.decode.memo_hits"},
			detail: "decode conservation violated: " +
				"nbhd.decode.calls != nbhd.decode.inner + nbhd.decode.memo_hits",
		},
		{
			name: "sim.verdicts",
			lhs:  []string{"sim.verdicts.accepted", "sim.verdicts.rejected", "sim.verdicts.crashed"},
			rhs:  []string{"sim.nodes"},
			detail: "verdict conservation violated: " +
				"sim.verdicts.accepted + sim.verdicts.rejected + sim.verdicts.crashed != sim.nodes",
		},
		{
			name: "sim.verdicts.crashed",
			lhs:  []string{"sim.verdicts.crashed"},
			rhs:  []string{"sim.crashed"},
			detail: "crash accounting violated: " +
				"sim.verdicts.crashed != sim.crashed",
		},
	}
	var out []Regression
	for _, c := range checks {
		lhs, rhs := 0.0, 0.0
		complete := true
		for _, n := range c.lhs {
			v, ok := val(n)
			if !ok {
				complete = false
				break
			}
			lhs += v
		}
		for _, n := range c.rhs {
			v, ok := val(n)
			if !ok {
				complete = false
				break
			}
			rhs += v
		}
		if !complete {
			continue
		}
		if lhs != rhs {
			out = append(out, Regression{
				Metric: c.name, Reason: "invariant", Base: rhs, Latest: lhs,
				Detail: fmt.Sprintf("%s (%.0f != %.0f)", c.detail, lhs, rhs),
			})
		}
	}
	return out
}

// AddTrend fills the report's trend table from a history window (oldest
// first, the latest run included): one row per metric present in the latest
// run, one value per run (absent runs contribute 0).
func (r *Report) AddTrend(window []Entry) {
	if len(window) == 0 {
		return
	}
	last := window[len(window)-1].Manifest
	names := make([]string, 0, len(last.Metrics))
	for _, s := range last.Metrics {
		if _, ok := comparableValue(s); ok {
			names = append(names, s.Name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		row := TrendRow{Metric: name, Values: make([]float64, len(window))}
		for i, e := range window {
			if s, ok := metricIndex(e.Manifest)[name]; ok {
				row.Values[i], _ = comparableValue(s)
			}
		}
		r.Trend = append(r.Trend, row)
	}
}

// HasRegressions reports whether the gate should fail.
func (r *Report) HasRegressions() bool { return len(r.Regressions) > 0 }

// WriteJSON renders the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteMarkdown renders the report as a Markdown document: verdict summary,
// the comparison table, any regressions, and the trend table when present.
func (r *Report) WriteMarkdown(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# Run regression report: %s\n\n", r.Tool)
	if r.HasRegressions() {
		fmt.Fprintf(&b, "**%d regression(s) found.**\n\n", len(r.Regressions))
		for _, reg := range r.Regressions {
			fmt.Fprintf(&b, "- %s\n", reg.String())
		}
		b.WriteString("\n")
	} else {
		b.WriteString("No regressions.\n\n")
	}
	b.WriteString("| metric | base | latest | ratio | verdict |\n")
	b.WriteString("|---|---:|---:|---:|---|\n")
	for _, row := range r.Rows {
		ratio := "-"
		if row.Ratio != 0 {
			ratio = fmt.Sprintf("%.3f", row.Ratio)
		}
		fmt.Fprintf(&b, "| %s | %.0f | %.0f | %s | %s |\n",
			row.Metric, row.Base, row.Latest, ratio, row.Verdict)
	}
	if len(r.Trend) > 0 {
		fmt.Fprintf(&b, "\n## Trend (last %d runs)\n\n", len(r.Trend[0].Values))
		b.WriteString("| metric | values (oldest first) |\n|---|---|\n")
		for _, tr := range r.Trend {
			vals := make([]string, len(tr.Values))
			for i, v := range tr.Values {
				vals[i] = fmt.Sprintf("%.0f", v)
			}
			fmt.Fprintf(&b, "| %s | %s |\n", tr.Metric, strings.Join(vals, ", "))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
