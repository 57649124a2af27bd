// Package regress is the one regression comparator behind the repository's
// gates: `benchjson diff` turns benchmark snapshots into samples and
// `obsdiff diff|gate` turns run manifests into samples, and both hand them
// to Compare under one threshold schema, then render the same Report.
package regress

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// Limits bounds the acceptable latest/baseline ratio of one metric. A zero
// ratio field means "unchecked" (or, inside a per_metric entry, "inherit").
// Skip excludes a metric entirely: the escape hatch for scheduling-sensitive
// counters (work-stealing tallies, per-worker memo hits) whose value is a
// function of GOMAXPROCS, not of the code under test.
type Limits struct {
	MaxRatio float64 `json:"max_ratio,omitempty"`
	MinRatio float64 `json:"min_ratio,omitempty"`
	Skip     bool    `json:"skip,omitempty"`
}

// Thresholds is a regression policy: default limits plus per_metric entries
// keyed by a metric name or by a unit. A metric's limits resolve field-wise:
// its own entry, then its unit's entry, then the default. Skip comes from the
// most specific entry present.
type Thresholds struct {
	Default   Limits            `json:"default"`
	PerMetric map[string]Limits `json:"per_metric,omitempty"`
}

// LoadThresholds reads a thresholds file strictly: an unknown key is an
// error, so a misspelt or outdated field cannot silently drop a limit.
func LoadThresholds(path string) (Thresholds, error) {
	var th Thresholds
	f, err := os.Open(path)
	if err != nil {
		return th, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&th); err != nil {
		return th, fmt.Errorf("%s: %w", path, err)
	}
	return th, nil
}

// limits resolves the effective limits for one sample.
func (t Thresholds) limits(s Sample) Limits {
	l := t.Default
	for _, key := range []string{s.Unit, s.Name} { // least specific first
		o, ok := t.PerMetric[key]
		if !ok || key == "" {
			continue
		}
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

// Sample is one named measurement. Unit is optional; when set, a per_metric
// entry keyed by it applies to every sample of that unit.
type Sample struct {
	Name  string
	Unit  string
	Value float64
}

// Row is one compared metric in a report, regression or not.
type Row struct {
	Metric  string  `json:"metric"`
	Base    float64 `json:"base"`
	Latest  float64 `json:"latest"`
	Ratio   float64 `json:"ratio"`
	Verdict string  `json:"verdict"` // "ok", "skip", "new", "missing", "REGRESS"
}

// Regression is one exceeded limit (Reason "ratio"), a baseline metric
// missing from the latest run ("missing"), or a violated cross-metric
// invariant that a reader adds itself ("invariant").
type Regression struct {
	Metric string  `json:"metric"`
	Reason string  `json:"reason"`
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

// TrendRow tracks one metric across the last N runs, oldest first.
type TrendRow struct {
	Metric string    `json:"metric"`
	Values []float64 `json:"values"`
}

// Report is the outcome of one latest-vs-baseline comparison; it
// serializes as the JSON report and renders as the Markdown report.
type Report struct {
	Title       string       `json:"title"`
	Rows        []Row        `json:"rows"`
	Regressions []Regression `json:"regressions,omitempty"`
	Trend       []TrendRow   `json:"trend,omitempty"`
}

// Compare checks every baseline sample against its namesake in latest under
// the thresholds: one row per baseline sample, then one per sample new in
// latest, each group sorted by name. A baseline sample missing from latest
// regresses unless skipped, so a gate cannot pass by deleting what it
// measures; a sample only in latest is new and never regresses; a zero
// baseline has no ratio. It fails when a name repeats within one side, and
// when no baseline sample has a counterpart in latest and nothing regressed,
// so a gate cannot pass vacuously.
func Compare(base, latest []Sample, th Thresholds) (*Report, error) {
	baseIdx, err := index(base)
	if err != nil {
		return nil, err
	}
	latestIdx, err := index(latest)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	matched := 0
	for _, b := range sorted(base) {
		l, ok := latestIdx[b.Name]
		if ok {
			matched++
		}
		lim := th.limits(b)
		row := Row{Metric: b.Name, Base: b.Value, Latest: l.Value, Verdict: "ok"}
		switch {
		case lim.Skip:
			row.Verdict = "skip"
		case !ok:
			row.Verdict = "missing"
			rep.Regressions = append(rep.Regressions, Regression{Metric: b.Name, Reason: "missing", Base: b.Value})
		case b.Value != 0:
			row.Ratio = l.Value / b.Value
			limit := 0.0
			if lim.MaxRatio != 0 && row.Ratio > lim.MaxRatio {
				limit = lim.MaxRatio
			} else if lim.MinRatio != 0 && row.Ratio < lim.MinRatio {
				limit = lim.MinRatio
			}
			if limit != 0 {
				row.Verdict = "REGRESS"
				rep.Regressions = append(rep.Regressions, Regression{
					Metric: b.Name, Reason: "ratio", Base: b.Value, Latest: l.Value, Ratio: row.Ratio, Limit: limit,
				})
			}
		}
		rep.Rows = append(rep.Rows, row)
	}
	for _, l := range sorted(latest) {
		if _, ok := baseIdx[l.Name]; !ok {
			rep.Rows = append(rep.Rows, Row{Metric: l.Name, Latest: l.Value, Verdict: "new"})
		}
	}
	if matched == 0 && len(rep.Regressions) == 0 {
		return nil, errors.New("no baseline metric has a counterpart in the latest run")
	}
	return rep, nil
}

func index(samples []Sample) (map[string]Sample, error) {
	idx := make(map[string]Sample, len(samples))
	for _, s := range samples {
		if _, dup := idx[s.Name]; dup {
			return nil, fmt.Errorf("metric %q appears twice in one run", s.Name)
		}
		idx[s.Name] = s
	}
	return idx, nil
}

func sorted(samples []Sample) []Sample {
	out := append([]Sample(nil), samples...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
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
	fmt.Fprintf(&b, "# %s\n\n", r.Title)
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
