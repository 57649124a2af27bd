package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"hidinglcp/internal/obs"
)

// buildObsdiff compiles the command once per test binary and returns its
// path — exit codes are the contract under test, so the tests exec the real
// thing.
func buildObsdiff(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "obsdiff")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building obsdiff: %v\n%s", err, out)
	}
	return bin
}

// writeManifest renders a manifest with the given counters to a file.
func writeManifest(t *testing.T, dir, name string, start int64, counters map[string]int64) string {
	t.Helper()
	sc := obs.NewScope()
	for k, v := range counters {
		sc.Counter(k).Add(v)
	}
	m := obs.NewManifest("experiments", nil)
	m.StartUnixNS = start
	m.Finalize(sc, nil)
	path := filepath.Join(dir, name)
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// run executes the built binary from the repository root, where its default
// thresholds file lives, and returns (exit code, combined output).
func run(t *testing.T, bin string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = filepath.Join("..", "..")
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), string(out)
	}
	t.Fatalf("running obsdiff: %v\n%s", err, out)
	return -1, ""
}

// TestDiffExitCodes pins the acceptance criterion: -fail-on-regress exits
// nonzero on a seeded counter regression and on a violated
// extracted = hits + misses invariant, and zero on a clean pair.
func TestDiffExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary; skipped in -short mode")
	}
	bin := buildObsdiff(t)
	dir := t.TempDir()
	base := writeManifest(t, dir, "base.json", 1, map[string]int64{"nbhd.instances": 1000})

	clean := writeManifest(t, dir, "clean.json", 2, map[string]int64{"nbhd.instances": 1020})
	if code, out := run(t, bin, "diff", "-fail-on-regress", base, clean); code != 0 {
		t.Errorf("clean diff exited %d:\n%s", code, out)
	}

	regressed := writeManifest(t, dir, "regressed.json", 3, map[string]int64{"nbhd.instances": 1500})
	code, out := run(t, bin, "diff", "-fail-on-regress", base, regressed)
	if code == 0 {
		t.Errorf("seeded counter regression exited 0:\n%s", out)
	}
	if !strings.Contains(out, "REGRESS") {
		t.Errorf("report does not mark the regression:\n%s", out)
	}

	// Without -fail-on-regress the same pair reports but exits 0.
	if code, _ := run(t, bin, "diff", base, regressed); code != 0 {
		t.Errorf("advisory diff exited %d", code)
	}

	violated := writeManifest(t, dir, "violated.json", 4, map[string]int64{
		"nbhd.instances": 1000, "nbhd.views.extracted": 100,
		"nbhd.intern.hits": 90, "nbhd.intern.misses": 5,
	})
	code, out = run(t, bin, "diff", "-fail-on-regress", base, violated)
	if code == 0 {
		t.Errorf("violated invariant exited 0:\n%s", out)
	}
	if !strings.Contains(out, "interning conservation violated") {
		t.Errorf("invariant violation not named in output:\n%s", out)
	}
}

// TestDiffRejectsTrend: -trend draws on a history directory, which only
// gate reads, so diff rejects the flag as a usage error instead of
// ignoring it.
func TestDiffRejectsTrend(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary; skipped in -short mode")
	}
	bin := buildObsdiff(t)
	dir := t.TempDir()
	a := writeManifest(t, dir, "a.json", 1, map[string]int64{"nbhd.instances": 1000})
	b := writeManifest(t, dir, "b.json", 2, map[string]int64{"nbhd.instances": 1000})
	code, out := run(t, bin, "diff", "-trend", "5", a, b)
	if code != 2 {
		t.Errorf("diff -trend exited %d, want 2:\n%s", code, out)
	}
	if !strings.Contains(out, "flag provided but not defined: -trend") {
		t.Errorf("diff -trend did not report a flag error:\n%s", out)
	}
}

// TestAppendAndGate drives the CI shape end to end: append runs into a
// history dir, gate the newest against a committed baseline with a trend
// table and report artifacts.
func TestAppendAndGate(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary; skipped in -short mode")
	}
	bin := buildObsdiff(t)
	scratch := t.TempDir()
	hist := filepath.Join(scratch, "history")
	base := writeManifest(t, scratch, "baseline.json", 1, map[string]int64{"nbhd.instances": 1000})

	for i, v := range []int64{1000, 1010, 1900} {
		m := writeManifest(t, scratch, "run.json", int64(i+2), map[string]int64{"nbhd.instances": v})
		if code, out := run(t, bin, "append", "-dir", hist, m); code != 0 {
			t.Fatalf("append exited %d:\n%s", code, out)
		}
	}

	jsonOut := filepath.Join(scratch, "report.json")
	mdOut := filepath.Join(scratch, "report.md")
	code, out := run(t, bin, "gate", "-fail-on-regress", "-baseline", base, "-dir", hist,
		"-trend", "3", "-json", jsonOut, "-md", mdOut)
	if code == 0 {
		t.Errorf("gate passed a 1.9x regression:\n%s", out)
	}
	md, err := os.ReadFile(mdOut)
	if err != nil {
		t.Fatalf("markdown artifact missing: %v", err)
	}
	for _, want := range []string{"## Trend", "1000, 1010, 1900"} {
		if !strings.Contains(string(md), want) {
			t.Errorf("markdown artifact missing %q:\n%s", want, md)
		}
	}
	if _, err := os.Stat(jsonOut); err != nil {
		t.Errorf("json artifact missing: %v", err)
	}

	// Skip-listing the metric turns the same gate green.
	thr := filepath.Join(scratch, "thresholds.json")
	os.WriteFile(thr, []byte(`{"default":{"max_ratio":1.1,"min_ratio":0.9},`+ //nolint:errcheck
		`"per_metric":{"nbhd.instances":{"skip":true}}}`), 0o644)
	if code, out := run(t, bin, "gate", "-fail-on-regress", "-baseline", base, "-dir", hist, "-thresholds", thr); code != 0 {
		t.Errorf("skip-listed gate exited %d:\n%s", code, out)
	}
}

// TestGateFailsOnMetricLessBaseline: a baseline with no metric compares
// nothing, so the gate fails instead of passing vacuously.
func TestGateFailsOnMetricLessBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary; skipped in -short mode")
	}
	bin := buildObsdiff(t)
	scratch := t.TempDir()
	hist := filepath.Join(scratch, "history")
	base := writeManifest(t, scratch, "baseline.json", 1, nil)
	m := writeManifest(t, scratch, "run.json", 2, map[string]int64{"nbhd.instances": 1000})
	if code, out := run(t, bin, "append", "-dir", hist, m); code != 0 {
		t.Fatalf("append exited %d:\n%s", code, out)
	}
	code, out := run(t, bin, "gate", "-fail-on-regress", "-baseline", base, "-dir", hist)
	if code == 0 {
		t.Errorf("gate against a metric-less baseline exited 0:\n%s", out)
	}
	if !strings.Contains(out, "no baseline metric") {
		t.Errorf("gate did not say why it failed:\n%s", out)
	}
}
