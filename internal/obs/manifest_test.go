package obs

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// goldenManifest builds a fully deterministic manifest: every field that
// would normally come from the clock or the build is pinned.
func goldenManifest() *RunManifest {
	sc := NewScope().WithTracer(NewTracer(8))
	sc.Counter("nbhd.instances").Add(83521)
	sc.Counter("nbhd.intern.hits").Add(1204)
	sc.Gauge("nbhd.shards.total").Set(16)
	h := sc.Histogram("nbhd.build.duration_ns")
	h.Observe(1500)
	h.Observe(2500)

	m := NewManifest("experiments", []string{"-run", "e04"})
	m.SetConfig("shards", "16")
	m.SetConfig("workers", "4")
	m.Finalize(sc, nil)

	// Pin the ambient fields so the rendering is byte-stable.
	m.GitRevision = "0123456789abcdef"
	m.GitDirty = false
	m.GoVersion = "go1.22.0"
	m.StartUnixNS = 1700000000000000000
	m.EndUnixNS = 1700000001500000000
	m.DurationNS = m.EndUnixNS - m.StartUnixNS
	return m
}

// TestManifestGolden pins the manifest JSON rendering byte for byte and
// proves it round-trips through encoding/json without loss.
func TestManifestGolden(t *testing.T) {
	m := goldenManifest()
	got, err := m.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "manifest_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("manifest rendering drifted from golden; regenerate with -update if intended\ngot:\n%s\nwant:\n%s", got, want)
	}

	var back RunManifest
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatalf("unmarshal round trip: %v", err)
	}
	if !reflect.DeepEqual(&back, m) {
		t.Errorf("round trip lost data:\ngot  %+v\nwant %+v", &back, m)
	}
}

// TestManifestMatchesSchema validates the golden manifest against the
// checked-in JSON schema — the same check CI runs on real manifests via
// cmd/manifestcheck.
func TestManifestMatchesSchema(t *testing.T) {
	schema, err := os.ReadFile(filepath.Join("..", "..", "docs", "run-manifest.schema.json"))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := goldenManifest().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateJSON(schema, doc); err != nil {
		t.Errorf("golden manifest fails its own schema: %v", err)
	}
}

func TestManifestWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	m := NewManifest("lcpcheck", nil)
	sc := NewScope()
	sc.Counter("x").Inc()
	m.Finalize(sc, os.ErrNotExist)
	if m.Outcome != "error" || m.Error == "" {
		t.Errorf("error outcome not recorded: %+v", m)
	}
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back RunManifest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("written manifest is not valid JSON: %v", err)
	}
	if back.Schema != ManifestSchema || back.Tool != "lcpcheck" || len(back.Metrics) != 1 {
		t.Errorf("written manifest = %+v", back)
	}
	if back.DurationNS < 0 || back.EndUnixNS < back.StartUnixNS {
		t.Errorf("implausible timing: %+v", back)
	}
}
