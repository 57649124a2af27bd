package benchjson

import (
	"strings"
	"testing"

	"hidinglcp/internal/regress"
)

func diffSnap(date string, bs ...Benchmark) *Snapshot {
	return &Snapshot{Date: date, Benchmarks: bs}
}

// policy is a unit-keyed policy (ns/op 1.5x, B/op 1.15x, allocs/op 1.05x)
// plus the given per-metric entries.
func policy(extra map[string]regress.Limits) regress.Thresholds {
	th := regress.Thresholds{PerMetric: map[string]regress.Limits{
		"ns/op": {MaxRatio: 1.5}, "B/op": {MaxRatio: 1.15}, "allocs/op": {MaxRatio: 1.05},
	}}
	for k, v := range extra {
		th.PerMetric[k] = v
	}
	return th
}

// diff runs Diff and returns its regressions and Markdown report.
func diff(t *testing.T, old, cur *Snapshot, th regress.Thresholds) ([]regress.Regression, string) {
	t.Helper()
	rep, err := Diff(old, cur, th)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := rep.WriteMarkdown(&sb); err != nil {
		t.Fatal(err)
	}
	return rep.Regressions, sb.String()
}

func TestDiffNoRegressions(t *testing.T) {
	old := diffSnap("old",
		Benchmark{Name: "BenchmarkA", NsPerOp: 1000, BytesPerOp: 5000, AllocsPerOp: 100},
	)
	cur := diffSnap("new",
		Benchmark{Name: "BenchmarkA", NsPerOp: 900, BytesPerOp: 4000, AllocsPerOp: 90},
	)
	regs, report := diff(t, old, cur, policy(nil))
	if len(regs) != 0 {
		t.Errorf("improvement flagged as regression: %v", regs)
	}
	if !strings.Contains(report, "ok") {
		t.Errorf("report missing ok verdicts:\n%s", report)
	}
}

func TestDiffCatchesRegressions(t *testing.T) {
	old := diffSnap("old",
		Benchmark{Name: "BenchmarkA", NsPerOp: 1000, BytesPerOp: 5000, AllocsPerOp: 100},
	)
	cur := diffSnap("new",
		Benchmark{Name: "BenchmarkA", NsPerOp: 1000, BytesPerOp: 5000, AllocsPerOp: 120},
	)
	regs, _ := diff(t, old, cur, policy(nil))
	if len(regs) != 1 || regs[0].Metric != "BenchmarkA allocs/op" {
		t.Fatalf("regressions = %v, want one allocs/op regression", regs)
	}
	if regs[0].Ratio < 1.19 || regs[0].Ratio > 1.21 {
		t.Errorf("ratio = %.3f, want 1.2", regs[0].Ratio)
	}
	if !strings.Contains(regs[0].String(), "allocs/op") {
		t.Errorf("regression string %q does not name the metric", regs[0].String())
	}
}

func TestDiffPerBenchmarkOverride(t *testing.T) {
	old := diffSnap("old",
		Benchmark{Name: "BenchmarkNoisy", NsPerOp: 1000, AllocsPerOp: 100},
		Benchmark{Name: "BenchmarkTight", NsPerOp: 1000, AllocsPerOp: 100},
	)
	cur := diffSnap("new",
		Benchmark{Name: "BenchmarkNoisy", NsPerOp: 1000, AllocsPerOp: 150},
		Benchmark{Name: "BenchmarkTight", NsPerOp: 1000, AllocsPerOp: 101},
	)
	th := policy(map[string]regress.Limits{
		"BenchmarkNoisy allocs/op": {MaxRatio: 2.0},   // loosened: 1.5x passes
		"BenchmarkTight allocs/op": {MaxRatio: 1.001}, // tightened: +1% fails
	})
	regs, _ := diff(t, old, cur, th)
	if len(regs) != 1 || regs[0].Metric != "BenchmarkTight allocs/op" {
		t.Fatalf("regressions = %v, want exactly BenchmarkTight", regs)
	}
}

func TestDiffMissingBenchmarkRegresses(t *testing.T) {
	old := diffSnap("old",
		Benchmark{Name: "BenchmarkGone", NsPerOp: 1000, AllocsPerOp: 100},
		Benchmark{Name: "BenchmarkKept", NsPerOp: 1000, AllocsPerOp: 100},
	)
	cur := diffSnap("new",
		Benchmark{Name: "BenchmarkKept", NsPerOp: 1000, AllocsPerOp: 100},
		Benchmark{Name: "BenchmarkAdded", NsPerOp: 1, AllocsPerOp: 1},
	)
	regs, report := diff(t, old, cur, policy(nil))
	// One regression per metric BenchmarkGone reported: ns/op and allocs/op.
	if len(regs) != 2 {
		t.Fatalf("regressions = %v, want BenchmarkGone's two metrics missing", regs)
	}
	for _, r := range regs {
		if r.Reason != "missing" || !strings.HasPrefix(r.Metric, "BenchmarkGone ") {
			t.Errorf("regression %v, want BenchmarkGone missing", r)
		}
	}
	if !strings.Contains(report, "| BenchmarkAdded ns/op | 0 | 1 | - | new |") {
		t.Errorf("report does not mark the added benchmark:\n%s", report)
	}
}

func TestDiffZeroLimitDisablesMetric(t *testing.T) {
	old := diffSnap("old", Benchmark{Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: 10})
	cur := diffSnap("new", Benchmark{Name: "BenchmarkA", NsPerOp: 10000, AllocsPerOp: 10})
	th := regress.Thresholds{PerMetric: map[string]regress.Limits{"allocs/op": {MaxRatio: 1.05}}}
	if regs, _ := diff(t, old, cur, th); len(regs) != 0 {
		t.Errorf("ns/op checked despite zero limit: %v", regs)
	}
}

func TestDiffNoCommonBenchmarks(t *testing.T) {
	old := diffSnap("old")
	cur := diffSnap("new", Benchmark{Name: "BenchmarkA"})
	if _, err := Diff(old, cur, policy(nil)); err == nil {
		t.Error("expected an error for disjoint snapshots")
	}
}

// TestLimitsForInheritance: a benchmark's own entry overrides its unit's
// entry, which overrides the default, field-wise; unlisted benchmarks take
// the unit entries.
func TestLimitsForInheritance(t *testing.T) {
	th := regress.Thresholds{
		Default: regress.Limits{MaxRatio: 1.1},
		PerMetric: map[string]regress.Limits{
			"ns/op":           {MaxRatio: 1.5},
			"B/op":            {MaxRatio: 1.2},
			"BenchmarkA B/op": {MaxRatio: 3.0},
		},
	}
	old := diffSnap("old",
		Benchmark{Name: "BenchmarkA", NsPerOp: 100, BytesPerOp: 100, AllocsPerOp: 100},
		Benchmark{Name: "BenchmarkB", NsPerOp: 100, BytesPerOp: 100, AllocsPerOp: 100},
	)
	cur := diffSnap("new",
		Benchmark{Name: "BenchmarkA", NsPerOp: 140, BytesPerOp: 290, AllocsPerOp: 115},
		Benchmark{Name: "BenchmarkB", NsPerOp: 140, BytesPerOp: 130, AllocsPerOp: 105},
	)
	regs, _ := diff(t, old, cur, th)
	var got []string
	for _, r := range regs {
		got = append(got, r.Metric)
	}
	if want := "BenchmarkA allocs/op,BenchmarkB B/op"; strings.Join(got, ",") != want {
		t.Errorf("regressions = %v, want %s", got, want)
	}
}
