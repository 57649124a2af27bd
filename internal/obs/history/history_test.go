package history

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hidinglcp/internal/obs"
)

// manifest builds a finalized-looking manifest from (name, value) counter
// pairs at the given start time.
func manifest(tool string, start int64, counters map[string]int64) *obs.RunManifest {
	m := &obs.RunManifest{
		Schema:      obs.ManifestSchema,
		Tool:        tool,
		StartUnixNS: start,
		Outcome:     "ok",
	}
	names := make([]string, 0, len(counters))
	for n := range counters {
		names = append(names, n)
	}
	// Registry snapshots are name-sorted; mimic that for realism.
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	for _, n := range names {
		m.Metrics = append(m.Metrics, obs.MetricSnapshot{Name: n, Kind: obs.KindCounter, Value: counters[n]})
	}
	return m
}

// TestAppendLoadRoundTrip: Append writes chronologically-sorting filenames
// and Load returns entries oldest-first regardless of write order.
func TestAppendLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, start := range []int64{300, 100, 200} {
		if _, err := Append(dir, manifest("experiments", start, map[string]int64{"c": start})); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("loaded %d entries, want 3", len(entries))
	}
	for i, want := range []int64{100, 200, 300} {
		if got := entries[i].Manifest.StartUnixNS; got != want {
			t.Errorf("entry %d start = %d, want %d", i, got, want)
		}
	}
	if l := Latest(entries); l.Manifest.StartUnixNS != 300 {
		t.Errorf("Latest = %d, want 300", l.Manifest.StartUnixNS)
	}
}

// TestLoadMissingDirIsEmpty: a history that does not exist yet is empty,
// not an error (first run of the CI gate).
func TestLoadMissingDirIsEmpty(t *testing.T) {
	entries, err := Load(filepath.Join(t.TempDir(), "nope"))
	if err != nil || entries != nil {
		t.Errorf("Load(missing) = %v, %v", entries, err)
	}
}

// TestLoadToolFilters keeps only the requested tool's runs.
func TestLoadToolFilters(t *testing.T) {
	dir := t.TempDir()
	Append(dir, manifest("experiments", 1, nil)) //nolint:errcheck
	Append(dir, manifest("lcpcheck", 2, nil))    //nolint:errcheck
	entries, err := LoadTool(dir, "lcpcheck")
	if err != nil || len(entries) != 1 || entries[0].Manifest.Tool != "lcpcheck" {
		t.Errorf("LoadTool = %+v, %v", entries, err)
	}
}

// TestReadManifestRejectsWrongSchema: stray JSON cannot enter the history.
func TestReadManifestRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(path, []byte(`{"schema":"something/else","tool":"x"}`), 0o644) //nolint:errcheck
	if _, err := ReadManifest(path); err == nil {
		t.Error("wrong-schema manifest accepted")
	}
}

// TestDiffSeededCounterRegression is the acceptance check: a counter that
// moved beyond the ratio limits regresses in both directions.
func TestDiffSeededCounterRegression(t *testing.T) {
	base := manifest("experiments", 1, map[string]int64{"nbhd.instances": 1000, "steady": 50})
	worse := manifest("experiments", 2, map[string]int64{"nbhd.instances": 1200, "steady": 50})
	rep := Diff(base, worse, DefaultThresholds())
	if !rep.HasRegressions() || len(rep.Regressions) != 1 {
		t.Fatalf("regressions = %+v, want exactly the seeded one", rep.Regressions)
	}
	reg := rep.Regressions[0]
	if reg.Metric != "nbhd.instances" || reg.Reason != "ratio" || reg.Ratio != 1.2 {
		t.Errorf("regression = %+v", reg)
	}

	// A drop below MinRatio is just as much a regression (lost coverage).
	shrunk := manifest("experiments", 3, map[string]int64{"nbhd.instances": 500, "steady": 50})
	if rep := Diff(base, shrunk, DefaultThresholds()); !rep.HasRegressions() {
		t.Error("shrunk counter passed the gate")
	}

	// Within limits: clean.
	steady := manifest("experiments", 4, map[string]int64{"nbhd.instances": 1050, "steady": 50})
	if rep := Diff(base, steady, DefaultThresholds()); rep.HasRegressions() {
		t.Errorf("in-limit drift regressed: %+v", rep.Regressions)
	}
}

// TestDiffMissingMetricRegresses: deleting instrumentation cannot pass the
// gate, but Skip-listed metrics may come and go.
func TestDiffMissingMetricRegresses(t *testing.T) {
	base := manifest("t", 1, map[string]int64{"kept": 5, "deleted": 7})
	latest := manifest("t", 2, map[string]int64{"kept": 5})
	rep := Diff(base, latest, DefaultThresholds())
	if len(rep.Regressions) != 1 || rep.Regressions[0].Reason != "missing" {
		t.Fatalf("regressions = %+v", rep.Regressions)
	}
	th := DefaultThresholds()
	th.PerMetric = map[string]Limits{"deleted": {Skip: true}}
	if rep := Diff(base, latest, th); rep.HasRegressions() {
		t.Errorf("skip-listed missing metric regressed: %+v", rep.Regressions)
	}
}

// TestDiffSkipAndNewMetrics: skipped metrics never regress however far they
// move; brand-new metrics are reported but never regress.
func TestDiffSkipAndNewMetrics(t *testing.T) {
	base := manifest("t", 1, map[string]int64{"nbhd.shards.stolen": 10})
	latest := manifest("t", 2, map[string]int64{"nbhd.shards.stolen": 400, "fresh": 1})
	th := DefaultThresholds()
	th.PerMetric = map[string]Limits{"nbhd.shards.stolen": {Skip: true}}
	rep := Diff(base, latest, th)
	if rep.HasRegressions() {
		t.Errorf("regressions = %+v", rep.Regressions)
	}
	var sawSkip, sawNew bool
	for _, row := range rep.Rows {
		if row.Metric == "nbhd.shards.stolen" && row.Verdict == "skip" {
			sawSkip = true
		}
		if row.Metric == "fresh" && row.Verdict == "new" {
			sawNew = true
		}
	}
	if !sawSkip || !sawNew {
		t.Errorf("rows = %+v", rep.Rows)
	}
}

// TestCheckInvariants is the second acceptance check: a manifest violating
// extracted = hits + misses fails the gate even against itself.
func TestCheckInvariants(t *testing.T) {
	ok := manifest("t", 1, map[string]int64{
		"nbhd.views.extracted": 100, "nbhd.intern.hits": 90, "nbhd.intern.misses": 10,
	})
	if regs := CheckInvariants(ok); len(regs) != 0 {
		t.Errorf("consistent manifest flagged: %+v", regs)
	}
	bad := manifest("t", 2, map[string]int64{
		"nbhd.views.extracted": 100, "nbhd.intern.hits": 90, "nbhd.intern.misses": 5,
	})
	regs := CheckInvariants(bad)
	if len(regs) != 1 || regs[0].Reason != "invariant" {
		t.Fatalf("regressions = %+v", regs)
	}
	// The violation also surfaces through Diff, so -fail-on-regress trips.
	if rep := Diff(ok, bad, DefaultThresholds()); !rep.HasRegressions() {
		t.Error("Diff missed the invariant violation")
	}
	// Manifests without the subsystem's metrics pass vacuously.
	if regs := CheckInvariants(manifest("t", 3, map[string]int64{"other": 1})); len(regs) != 0 {
		t.Errorf("vacuous manifest flagged: %+v", regs)
	}
}

// TestCheckInvariantsDecodeConservation: calls = inner + memo_hits is held
// exactly even though the thresholds skip the scheduling-dependent split.
func TestCheckInvariantsDecodeConservation(t *testing.T) {
	ok := manifest("t", 1, map[string]int64{
		"nbhd.decode.calls": 94, "nbhd.decode.inner": 48, "nbhd.decode.memo_hits": 46,
	})
	if regs := CheckInvariants(ok); len(regs) != 0 {
		t.Errorf("consistent decode counters flagged: %+v", regs)
	}
	bad := manifest("t", 2, map[string]int64{
		"nbhd.decode.calls": 94, "nbhd.decode.inner": 48, "nbhd.decode.memo_hits": 45,
	})
	if regs := CheckInvariants(bad); len(regs) != 1 || regs[0].Metric != "nbhd.decode.calls" {
		t.Errorf("lost decode call not flagged: %+v", regs)
	}
}

// TestCheckInvariantsFaultConservation covers the §10 checks: verdict
// conservation and crash accounting.
func TestCheckInvariantsFaultConservation(t *testing.T) {
	ok := manifest("t", 1, map[string]int64{
		"sim.nodes": 20, "sim.verdicts.accepted": 15, "sim.verdicts.rejected": 2,
		"sim.verdicts.crashed": 3, "sim.crashed": 3,
	})
	if regs := CheckInvariants(ok); len(regs) != 0 {
		t.Errorf("consistent fault manifest flagged: %+v", regs)
	}
	lost := manifest("t", 2, map[string]int64{
		"sim.nodes": 20, "sim.verdicts.accepted": 14, "sim.verdicts.rejected": 2,
		"sim.verdicts.crashed": 3, "sim.crashed": 3,
	})
	if regs := CheckInvariants(lost); len(regs) != 1 || regs[0].Metric != "sim.verdicts" {
		t.Errorf("lost verdict not flagged: %+v", regs)
	}
	unaccounted := manifest("t", 3, map[string]int64{
		"sim.nodes": 20, "sim.verdicts.accepted": 15, "sim.verdicts.rejected": 2,
		"sim.verdicts.crashed": 3, "sim.crashed": 4,
	})
	if regs := CheckInvariants(unaccounted); len(regs) != 1 || regs[0].Metric != "sim.verdicts.crashed" {
		t.Errorf("unaccounted crash not flagged: %+v", regs)
	}
}

// TestReportRendering: the JSON report round-trips and the Markdown report
// carries the verdicts and the trend table.
func TestReportRendering(t *testing.T) {
	dir := t.TempDir()
	var entries []Entry
	for i, v := range []int64{100, 110, 300} {
		m := manifest("experiments", int64(i+1), map[string]int64{"nbhd.instances": v})
		if _, err := Append(dir, m); err != nil {
			t.Fatal(err)
		}
		entries = append(entries, Entry{Manifest: m})
	}
	rep := Diff(entries[1].Manifest, entries[2].Manifest, DefaultThresholds())
	rep.AddTrend(entries)

	var jsonBuf bytes.Buffer
	if err := rep.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(jsonBuf.Bytes(), &back); err != nil {
		t.Fatalf("JSON report does not round-trip: %v", err)
	}
	if len(back.Regressions) != 1 || len(back.Trend) != 1 || len(back.Trend[0].Values) != 3 {
		t.Errorf("round-tripped report = %+v", back)
	}

	var md bytes.Buffer
	if err := rep.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	out := md.String()
	for _, want := range []string{"1 regression(s)", "| nbhd.instances |", "REGRESS", "## Trend", "100, 110, 300"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown report missing %q:\n%s", want, out)
		}
	}
}

// TestThresholdInheritance: per-metric overrides inherit unset fields from
// the default, field-wise.
func TestThresholdInheritance(t *testing.T) {
	th := Thresholds{
		Default:   Limits{MaxRatio: 1.5, MinRatio: 0.5},
		PerMetric: map[string]Limits{"tight": {MaxRatio: 1.01}},
	}
	l := th.limitsFor("tight")
	if l.MaxRatio != 1.01 || l.MinRatio != 0.5 || l.Skip {
		t.Errorf("limitsFor(tight) = %+v", l)
	}
	if l := th.limitsFor("other"); l.MaxRatio != 1.5 {
		t.Errorf("limitsFor(other) = %+v", l)
	}
}
