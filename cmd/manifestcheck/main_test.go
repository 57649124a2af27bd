package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hidinglcp/internal/obs"
)

// writeManifest finalizes a manifest for sc into dir and returns its path.
func writeManifest(t *testing.T, dir, name string, sc obs.Scope) string {
	t.Helper()
	m := obs.NewManifest("manifestcheck-test", nil)
	m.Finalize(sc, nil)
	path := filepath.Join(dir, name)
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func loadSchema(t *testing.T) []byte {
	t.Helper()
	schema, err := os.ReadFile(filepath.Join("..", "..", "docs", "run-manifest.schema.json"))
	if err != nil {
		t.Fatal(err)
	}
	return schema
}

func TestCheckFileAcceptsRealManifest(t *testing.T) {
	sc := obs.NewScope()
	sc.Counter("demo.count").Add(7)
	path := writeManifest(t, t.TempDir(), "ok.json", sc)
	if err := checkFile(loadSchema(t), path, true); err != nil {
		t.Errorf("valid manifest rejected: %v", err)
	}
}

func TestCheckFileRejectsMalformedManifest(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	// outcome must be "ok" or "error"; "maybe" violates the enum.
	doc := `{"schema":"hidinglcp/run-manifest/v1","tool":"x","start_unix_ns":1,` +
		`"end_unix_ns":2,"duration_ns":1,"outcome":"maybe","metrics":[]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	err := checkFile(loadSchema(t), path, false)
	if err == nil || !strings.Contains(err.Error(), "outcome") {
		t.Errorf("schema violation not reported, got %v", err)
	}
}

func TestRequireMetricsRejectsEmptyRun(t *testing.T) {
	path := writeManifest(t, t.TempDir(), "empty.json", obs.NewScope())
	if err := checkFile(loadSchema(t), path, false); err != nil {
		t.Errorf("schema-only check should pass an empty run: %v", err)
	}
	err := checkFile(loadSchema(t), path, true)
	if err == nil || !strings.Contains(err.Error(), "no metric snapshots") {
		t.Errorf("empty metric snapshot not reported, got %v", err)
	}
}

func TestRequireMetricsRejectsAllZero(t *testing.T) {
	sc := obs.NewScope()
	sc.Counter("touched.but.zero").Add(0)
	path := writeManifest(t, t.TempDir(), "zero.json", sc)
	err := checkFile(loadSchema(t), path, true)
	if err == nil || !strings.Contains(err.Error(), "zero") {
		t.Errorf("all-zero snapshot not reported, got %v", err)
	}
}
