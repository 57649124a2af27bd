package main

import (
	"encoding/json"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"hidinglcp/internal/analysis"
)

// TestRepositoryIsLintClean pins the acceptance criterion that the whole
// module satisfies the determinism contract: every analyzer, zero
// diagnostics. A regression here means a decoder grew state, a map
// iteration leaked ordering, or ambient nondeterminism crept into a
// library package.
func TestRepositoryIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	root := moduleRoot(t)
	diags, err := lintFrom(root, []string{"./..."})
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// lintFrom mirrors main's lint but anchored at dir, so the test works from
// the package's own working directory.
func lintFrom(dir string, patterns []string) ([]analysis.Diagnostic, error) {
	pkgs, err := analysis.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return analysis.RunAnalyzers(pkgs, analysis.All())
}

// sampleDiags is a fixed diagnostic pair for the report/annotation tests,
// including the characters the workflow-command escaping must handle.
func sampleDiags() []analysis.Diagnostic {
	return []analysis.Diagnostic{
		{
			Pos:      token.Position{Filename: "internal/view/view.go", Line: 12, Column: 3},
			Message:  "certificate-tainted value flows into an error message (fmt.Errorf)",
			Analyzer: "certflow",
		},
		{
			Pos:      token.Position{Filename: "internal/nbhd/build.go", Line: 40, Column: 9},
			Message:  "50% done\nsecond line",
			Analyzer: "gostmt",
		},
	}
}

// TestBuildReport pins the archived JSON shape: tool name, the full
// analyzer roster, one record per diagnostic, and Clean mirroring the exit
// status.
func TestBuildReport(t *testing.T) {
	r := buildReport([]string{"./..."}, sampleDiags())
	if r.Tool != "lcplint" || r.Clean {
		t.Errorf("report header wrong: tool=%q clean=%v", r.Tool, r.Clean)
	}
	if want := len(analysis.All()); len(r.Analyzers) != want {
		t.Errorf("report lists %d analyzers, suite has %d", len(r.Analyzers), want)
	}
	if len(r.Diagnostics) != 2 {
		t.Fatalf("report holds %d diagnostics, want 2", len(r.Diagnostics))
	}
	d := r.Diagnostics[0]
	if d.File != "internal/view/view.go" || d.Line != 12 || d.Column != 3 || d.Analyzer != "certflow" {
		t.Errorf("diagnostic flattened wrong: %+v", d)
	}

	clean := buildReport([]string{"./..."}, nil)
	if !clean.Clean || clean.Diagnostics == nil || len(clean.Diagnostics) != 0 {
		t.Errorf("clean report must have Clean=true and an empty (non-null) diagnostics array: %+v", clean)
	}
}

// TestWriteJSONReport round-trips a report through a file the way the CI
// artifact step consumes it.
func TestWriteJSONReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lcplint.json")
	if err := writeJSONReport(path, buildReport([]string{"./..."}, sampleDiags())); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got report
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if got.Clean || len(got.Diagnostics) != 2 || got.Diagnostics[1].Analyzer != "gostmt" {
		t.Errorf("round-trip lost content: %+v", got)
	}
}

// TestPrintAnnotations pins the GitHub workflow-command format and its
// escaping: newlines and percents in messages must not break the command.
func TestPrintAnnotations(t *testing.T) {
	var b strings.Builder
	printAnnotations(&b, sampleDiags())
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d annotation lines, want 2:\n%s", len(lines), b.String())
	}
	if want := "::error file=internal/view/view.go,line=12,col=3,title=lcplint/certflow::"; !strings.HasPrefix(lines[0], want) {
		t.Errorf("annotation %q does not start with %q", lines[0], want)
	}
	if !strings.Contains(lines[1], "50%25 done%0Asecond line") {
		t.Errorf("annotation escaping failed: %q", lines[1])
	}
}

// moduleRoot locates the module directory containing this test.
func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == "/dev/null" || gomod == "NUL" {
		t.Fatal("not inside a module")
	}
	return filepath.Dir(gomod)
}
