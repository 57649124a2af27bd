package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"hidinglcp/internal/benchjson"
)

// buildBenchjson compiles the command and returns its path: exit codes are
// the contract under test, so the tests exec the real thing.
func buildBenchjson(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "benchjson")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building benchjson: %v\n%s", err, out)
	}
	return bin
}

// writeSnapshot writes a snapshot of the given benchmarks to dir/name.
func writeSnapshot(t *testing.T, dir, name string, bs ...benchjson.Benchmark) string {
	t.Helper()
	data, err := json.Marshal(benchjson.Snapshot{Date: name, Benchmarks: bs})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
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
	t.Fatalf("running benchjson: %v\n%s", err, out)
	return -1, ""
}

// TestDiffExitCodes: diff exits 0 in advisory mode whatever it finds, 1
// under -fail-on-regress for a regressed or a missing benchmark, 2 on a
// usage error, and nonzero for a thresholds file with an unknown key.
func TestDiffExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary; skipped in -short mode")
	}
	bin := buildBenchjson(t)
	dir := t.TempDir()
	thr := filepath.Join(dir, "thresholds.json")
	os.WriteFile(thr, []byte(`{"default":{},"per_metric":{"allocs/op":{"max_ratio":1.05}}}`), 0o644) //nolint:errcheck
	base := writeSnapshot(t, dir, "base.json",
		benchjson.Benchmark{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 100},
		benchjson.Benchmark{Name: "BenchmarkB", NsPerOp: 1000, AllocsPerOp: 100})
	clean := writeSnapshot(t, dir, "clean.json",
		benchjson.Benchmark{Name: "BenchmarkA", NsPerOp: 5000, AllocsPerOp: 101},
		benchjson.Benchmark{Name: "BenchmarkB", NsPerOp: 1000, AllocsPerOp: 100})
	regressed := writeSnapshot(t, dir, "regressed.json",
		benchjson.Benchmark{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 150},
		benchjson.Benchmark{Name: "BenchmarkB", NsPerOp: 1000, AllocsPerOp: 100})
	missing := writeSnapshot(t, dir, "missing.json",
		benchjson.Benchmark{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 100})

	if code, out := run(t, bin, "diff", "-fail-on-regress", "-thresholds", thr, base, clean); code != 0 {
		t.Errorf("clean diff exited %d:\n%s", code, out)
	}
	code, out := run(t, bin, "diff", "-fail-on-regress", "-thresholds", thr, base, regressed)
	if code != 1 || !strings.Contains(out, "| BenchmarkA allocs/op | 100 | 150 | 1.500 | REGRESS |") {
		t.Errorf("regressed benchmark exited %d:\n%s", code, out)
	}
	code, out = run(t, bin, "diff", "-fail-on-regress", "-thresholds", thr, base, missing)
	if code != 1 || !strings.Contains(out, "BenchmarkB allocs/op: present in baseline but missing") {
		t.Errorf("missing benchmark exited %d:\n%s", code, out)
	}
	// Advisory mode reports every ratio and exits 0, here under the default
	// thresholds file.
	code, out = run(t, bin, "diff", base, regressed)
	if code != 0 || !strings.Contains(out, "REGRESS") {
		t.Errorf("advisory diff exited %d:\n%s", code, out)
	}

	for name, args := range map[string][]string{
		"one snapshot": {"diff", base},
		"unknown flag": {"diff", "-max-ns-ratio", "2", base, clean},
	} {
		if code, out := run(t, bin, args...); code != 2 {
			t.Errorf("%s exited %d, want 2:\n%s", name, code, out)
		}
	}

	stale := filepath.Join(dir, "stale.json")
	os.WriteFile(stale, []byte(`{"default":{"ns_ratio":2.0}}`), 0o644) //nolint:errcheck
	code, out = run(t, bin, "diff", "-thresholds", stale, base, clean)
	if code == 0 || !strings.Contains(out, "ns_ratio") {
		t.Errorf("unknown thresholds key exited %d:\n%s", code, out)
	}
}
