package cli

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"hidinglcp/internal/obs"
)

func TestObsFlagsSetupDisabled(t *testing.T) {
	var f ObsFlags
	sc, manifest, finish := f.Setup("test", nil)
	if sc.Enabled() {
		t.Error("scope enabled with no flags set")
	}
	if manifest != nil {
		t.Error("manifest created with -metrics-json unset")
	}
	manifest.SetConfig("k", "v") // must be a safe no-op on nil
	want := errors.New("boom")
	if got := finish(want); got != want {
		t.Errorf("finish(%v) = %v, want pass-through", want, got)
	}
}

func TestObsFlagsSetupWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	f := ObsFlags{
		MetricsJSON: filepath.Join(dir, "manifest.json"),
		TracePath:   filepath.Join(dir, "trace.json"),
	}
	sc, manifest, finish := f.Setup("test-tool", []string{"-x", "1"})
	if !sc.Enabled() {
		t.Fatal("scope disabled despite -metrics-json")
	}
	manifest.SetConfig("shards", "8")
	sc.Counter("demo.count").Add(41)
	sp := sc.Span("demo.phase")
	sp.End()
	if err := finish(nil); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(f.MetricsJSON)
	if err != nil {
		t.Fatal(err)
	}
	var m obs.RunManifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if m.Tool != "test-tool" || m.Outcome != "ok" || m.Config["shards"] != "8" {
		t.Errorf("manifest = %+v", m)
	}
	if len(m.Metrics) != 1 || m.Metrics[0].Name != "demo.count" || m.Metrics[0].Value != 41 {
		t.Errorf("metrics = %+v", m.Metrics)
	}
	if len(m.Spans) != 1 || m.Spans[0].Name != "demo.phase" {
		t.Errorf("spans = %+v", m.Spans)
	}
	schema, err := os.ReadFile(filepath.Join("..", "..", "docs", "run-manifest.schema.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateJSON(schema, data); err != nil {
		t.Errorf("written manifest fails the checked-in schema: %v", err)
	}

	trace, err := os.ReadFile(f.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Spans []obs.SpanRecord `json:"spans"`
	}
	if err := json.Unmarshal(trace, &decoded); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(decoded.Spans) != 1 {
		t.Errorf("trace spans = %+v", decoded.Spans)
	}
}

func TestObsFlagsSetupErrorOutcome(t *testing.T) {
	dir := t.TempDir()
	f := ObsFlags{MetricsJSON: filepath.Join(dir, "m.json")}
	_, _, finish := f.Setup("test-tool", nil)
	runErr := errors.New("experiment failed")
	if got := finish(runErr); got != runErr {
		t.Errorf("finish returned %v, want the run error", got)
	}
	data, err := os.ReadFile(f.MetricsJSON)
	if err != nil {
		t.Fatal(err)
	}
	var m obs.RunManifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.Outcome != "error" || m.Error != "experiment failed" {
		t.Errorf("outcome = %q, error = %q", m.Outcome, m.Error)
	}
}

// TestObsFlagsHistoryAndEvents: -history alone still produces a manifest
// (appended, not written to -metrics-json).
func TestObsFlagsHistoryAndEvents(t *testing.T) {
	f := ObsFlags{HistoryDir: filepath.Join(t.TempDir(), "runs")}
	sc, manifest, finish := f.Setup("test-tool", nil)
	if !sc.Enabled() || manifest == nil {
		t.Fatal("history-only setup did not build a live scope + manifest")
	}
	sc.Counter("demo.count").Inc()
	if err := finish(nil); err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(f.HistoryDir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("history dir entries = %v, %v", entries, err)
	}
	data, err := os.ReadFile(filepath.Join(f.HistoryDir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	var m obs.RunManifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.Tool != "test-tool" || len(m.Metrics) == 0 {
		t.Errorf("appended manifest = %+v", m)
	}
}

// TestObsFlagsServeLifecycle: -serve brings the telemetry plane up during
// the run and finish tears it down.
func TestObsFlagsServeLifecycle(t *testing.T) {
	f := ObsFlags{Serve: "127.0.0.1:0"}
	sc, _, finish := f.Setup("test-tool", nil)
	if !sc.Enabled() || sc.Tracer() == nil {
		t.Fatal("-serve did not build a live scope with a tracer for /trace")
	}
	if err := finish(nil); err != nil {
		t.Fatalf("finish: %v", err)
	}
}
