// Package history is the longitudinal half of the telemetry plane: it
// appends finalized run manifests into a history directory, loads them back
// ordered by start time, and reads them into internal/regress, the
// comparator and threshold schema `benchjson diff` shares. Diff turns two
// manifests into samples (counters and gauges by value, histograms by
// count) and adds the cross-metric invariants only a manifest can check;
// AddTrend adds the N-run trend table. The live half — /metrics, /trace —
// lives in internal/obs/export.
package history

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"hidinglcp/internal/obs"
)

// Entry is one manifest on disk: the parsed document plus where it lives.
type Entry struct {
	Path     string
	Manifest *obs.RunManifest
}

// Append writes a finalized manifest into dir (created if missing) under a
// name that sorts chronologically: <tool>-<start_unix_ns zero-padded>.json.
// It returns the path written.
func Append(dir string, m *obs.RunManifest) (string, error) {
	if m == nil {
		return "", fmt.Errorf("history: nil manifest")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("history: %w", err)
	}
	name := fmt.Sprintf("%s-%020d.json", sanitizeTool(m.Tool), m.StartUnixNS)
	path := filepath.Join(dir, name)
	if err := m.WriteFile(path); err != nil {
		return "", fmt.Errorf("history: %w", err)
	}
	return path, nil
}

// sanitizeTool keeps the tool segment filename- and sort-safe.
func sanitizeTool(tool string) string {
	if tool == "" {
		return "run"
	}
	var b strings.Builder
	for _, r := range tool {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
			b.WriteRune(r)
		default:
			b.WriteRune('_')
		}
	}
	return b.String()
}

// Load reads every manifest in dir, oldest first by start time (filename
// order breaks ties). A missing dir is an empty history, not an error;
// unparseable files are.
func Load(dir string) ([]Entry, error) {
	files, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	var out []Entry
	for _, f := range files {
		if f.IsDir() || !strings.HasSuffix(f.Name(), ".json") {
			continue
		}
		path := filepath.Join(dir, f.Name())
		m, err := ReadManifest(path)
		if err != nil {
			return nil, err
		}
		out = append(out, Entry{Path: path, Manifest: m})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Manifest, out[j].Manifest
		if a.StartUnixNS != b.StartUnixNS {
			return a.StartUnixNS < b.StartUnixNS
		}
		return out[i].Path < out[j].Path
	})
	return out, nil
}

// LoadTool is Load filtered to one tool ("" keeps everything).
func LoadTool(dir, tool string) ([]Entry, error) {
	all, err := Load(dir)
	if err != nil || tool == "" {
		return all, err
	}
	var out []Entry
	for _, e := range all {
		if e.Manifest.Tool == tool {
			out = append(out, e)
		}
	}
	return out, nil
}

// Latest returns the newest entry of a history slice (nil when empty).
func Latest(entries []Entry) *Entry {
	if len(entries) == 0 {
		return nil
	}
	return &entries[len(entries)-1]
}

// ReadManifest parses one manifest file, checking the schema marker so a
// stray JSON document cannot silently enter the history.
func ReadManifest(path string) (*obs.RunManifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	var m obs.RunManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("history: parsing %s: %w", path, err)
	}
	if m.Schema != obs.ManifestSchema {
		return nil, fmt.Errorf("history: %s: schema %q, want %q", path, m.Schema, obs.ManifestSchema)
	}
	return &m, nil
}
