package hidinglcp_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"hidinglcp/internal/benchjson"
	"hidinglcp/internal/obs/history"
	"hidinglcp/internal/regress"
)

// benchUnits are the units benchjson diff compares; a per_metric key may
// name one of them.
var benchUnits = map[string]bool{"ns/op": true, "B/op": true, "allocs/op": true}

// TestThresholdsFilesNameWhatTheyGate loads both committed thresholds files
// through the strict loader and checks that every per_metric key names a
// unit, a "<Benchmark> <unit>" of the newest BENCH_*_after.json snapshot (the
// bench gate's baseline), or a metric of the committed E4 manifest (the
// telemetry gate's baseline). A key that names nothing gates nothing.
func TestThresholdsFilesNameWhatTheyGate(t *testing.T) {
	snaps, err := filepath.Glob("BENCH_*_after.json")
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no BENCH_*_after.json snapshot: %v", err)
	}
	sort.Strings(snaps)
	data, err := os.ReadFile(snaps[len(snaps)-1])
	if err != nil {
		t.Fatal(err)
	}
	var snap benchjson.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	benchmarks := map[string]bool{}
	for _, b := range snap.Benchmarks {
		benchmarks[b.Name] = true
	}
	manifest, err := history.ReadManifest(filepath.Join("runs", "baseline", "e04-manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	metrics := map[string]bool{}
	for _, m := range manifest.Metrics {
		metrics[m.Name] = true
	}

	for _, path := range []string{".bench-thresholds.json", ".obs-thresholds.json"} {
		th, err := regress.LoadThresholds(path)
		if err != nil {
			t.Errorf("%v", err)
			continue
		}
		for key := range th.PerMetric {
			i := strings.LastIndex(key, " ")
			switch {
			case benchUnits[key], metrics[key]:
			case i > 0 && benchUnits[key[i+1:]] && benchmarks[key[:i]]:
			default:
				t.Errorf("%s: key %q names no unit, no benchmark of %s and no metric of the E4 baseline",
					path, key, snaps[len(snaps)-1])
			}
		}
	}
}
