package regress

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLimitsResolution: a metric's own entry beats its unit's entry, which
// beats the default, field by field; Skip comes from the most specific entry.
func TestLimitsResolution(t *testing.T) {
	th := Thresholds{
		Default: Limits{MaxRatio: 1.1, MinRatio: 0.9, Skip: true},
		PerMetric: map[string]Limits{
			"ns/op":       {MaxRatio: 2.0},
			"A ns/op":     {MinRatio: 0.5},
			"B ns/op":     {Skip: true},
			"standalone":  {MaxRatio: 1.01},
			"allocs/op":   {Skip: true},
			"C allocs/op": {MaxRatio: 1.02},
		},
	}
	for _, tc := range []struct {
		s    Sample
		want Limits
	}{
		{Sample{Name: "A ns/op", Unit: "ns/op"}, Limits{MaxRatio: 2.0, MinRatio: 0.5}},
		{Sample{Name: "B ns/op", Unit: "ns/op"}, Limits{MaxRatio: 2.0, MinRatio: 0.9, Skip: true}},
		{Sample{Name: "Z ns/op", Unit: "ns/op"}, Limits{MaxRatio: 2.0, MinRatio: 0.9}},
		{Sample{Name: "Z allocs/op", Unit: "allocs/op"}, Limits{MaxRatio: 1.1, MinRatio: 0.9, Skip: true}},
		{Sample{Name: "C allocs/op", Unit: "allocs/op"}, Limits{MaxRatio: 1.02, MinRatio: 0.9}},
		{Sample{Name: "standalone"}, Limits{MaxRatio: 1.01, MinRatio: 0.9}},
		{Sample{Name: "unlisted"}, th.Default},
	} {
		if got := th.limits(tc.s); got != tc.want {
			t.Errorf("limits(%q) = %+v, want %+v", tc.s.Name, got, tc.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []Sample{
		{Name: "up", Value: 100}, {Name: "down", Value: 100}, {Name: "steady", Value: 100},
		{Name: "gone", Value: 5}, {Name: "skipped-gone", Value: 5}, {Name: "zero", Value: 0},
	}
	latest := []Sample{
		{Name: "up", Value: 120}, {Name: "down", Value: 80}, {Name: "steady", Value: 101},
		{Name: "zero", Value: 9}, {Name: "fresh", Value: 1},
	}
	th := Thresholds{
		Default:   Limits{MaxRatio: 1.1, MinRatio: 0.9},
		PerMetric: map[string]Limits{"skipped-gone": {Skip: true}},
	}
	rep, err := Compare(base, latest, th)
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, r := range rep.Rows {
		rows = append(rows, r.Metric+"="+r.Verdict)
	}
	want := "down=REGRESS,gone=missing,skipped-gone=skip,steady=ok,up=REGRESS,zero=ok,fresh=new"
	if got := strings.Join(rows, ","); got != want {
		t.Errorf("rows = %s\nwant   %s", got, want)
	}
	var regs []string
	for _, r := range rep.Regressions {
		regs = append(regs, r.Metric+":"+r.Reason)
	}
	if got, want := strings.Join(regs, ","), "down:ratio,gone:missing,up:ratio"; got != want {
		t.Errorf("regressions = %s, want %s", got, want)
	}
	if l := rep.Regressions[0].Limit; l != 0.9 {
		t.Errorf("down's limit = %v, want the 0.9 floor", l)
	}
}

// TestCompareNothingCompared: a baseline with no counterpart in latest and
// nothing regressed is an error, not a pass; a baseline whose every sample
// went missing is a regression instead.
func TestCompareNothingCompared(t *testing.T) {
	th := Thresholds{Default: Limits{MaxRatio: 1.1}}
	if _, err := Compare(nil, []Sample{{Name: "a", Value: 1}}, th); err == nil {
		t.Error("empty baseline compared without error")
	}
	skipped := Thresholds{PerMetric: map[string]Limits{"a": {Skip: true}}}
	if _, err := Compare([]Sample{{Name: "a", Value: 1}}, nil, skipped); err == nil {
		t.Error("skipped, missing-only baseline compared without error")
	}
	rep, err := Compare([]Sample{{Name: "a", Value: 1}}, []Sample{{Name: "b", Value: 1}}, th)
	if err != nil || !rep.HasRegressions() {
		t.Errorf("all-missing baseline: %+v, %v", rep, err)
	}
}

func TestCompareRejectsRepeatedNames(t *testing.T) {
	twice := []Sample{{Name: "a", Value: 1}, {Name: "a", Value: 2}}
	if _, err := Compare(twice, twice[:1], Thresholds{}); err == nil {
		t.Error("repeated baseline name accepted")
	}
	if _, err := Compare(twice[:1], twice, Thresholds{}); err == nil {
		t.Error("repeated latest name accepted")
	}
}

// TestLoadThresholdsStrict: a key outside the schema, such as the ns_ratio
// of the retired per-benchmark schema, fails the load.
func TestLoadThresholdsStrict(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	os.WriteFile(good, []byte(`{"default":{"max_ratio":1.1},"per_metric":{"ns/op":{"skip":true}}}`), 0o644) //nolint:errcheck
	th, err := LoadThresholds(good)
	if err != nil || th.Default.MaxRatio != 1.1 || !th.PerMetric["ns/op"].Skip {
		t.Errorf("LoadThresholds(good) = %+v, %v", th, err)
	}
	for name, doc := range map[string]string{
		"field": `{"default":{"ns_ratio":2.0}}`,
		"top":   `{"default":{},"per_benchmark":{}}`,
	} {
		path := filepath.Join(dir, name+".json")
		os.WriteFile(path, []byte(doc), 0o644) //nolint:errcheck
		if _, err := LoadThresholds(path); err == nil {
			t.Errorf("%s: unknown key accepted", name)
		}
	}
	if _, err := LoadThresholds(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}
