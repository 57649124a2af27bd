package main

import (
	"context"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"hidinglcp/internal/engine"
	"hidinglcp/internal/obs"
)

// build drives the pipeline the way main does, with output discarded.
func build(ctx context.Context, cfg engine.BuildConfig) error {
	cfg.Out = io.Discard
	return run(ctx, obs.Scope{}, engine.Default(), cfg)
}

func TestRunCanonicalFamilies(t *testing.T) {
	for _, scheme := range []string{"degree-one", "even-cycle", "shatter", "watermelon"} {
		t.Run(scheme, func(t *testing.T) {
			if err := build(nil, engine.BuildConfig{Scheme: scheme, Shards: 3, Workers: 2}); err != nil {
				t.Errorf("run(%s): %v", scheme, err)
			}
		})
	}
}

func TestRunCustomFamily(t *testing.T) {
	if err := build(nil, engine.BuildConfig{Scheme: "trivial", Graphs: "path:3,cycle:4"}); err != nil {
		t.Errorf("custom family: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := build(nil, engine.BuildConfig{Scheme: "bogus"}); err == nil {
		t.Error("unknown scheme accepted")
	}
	if err := build(nil, engine.BuildConfig{Scheme: "trivial"}); err == nil {
		t.Error("trivial without -graphs accepted")
	}
	if err := build(nil, engine.BuildConfig{Scheme: "trivial", Graphs: "bad:spec"}); err == nil {
		t.Error("bad graph spec accepted")
	}
	if err := build(nil, engine.BuildConfig{Scheme: "trivial", Graphs: "cycle:5"}); err == nil {
		t.Error("prover-labeled family on a no-instance accepted")
	}
}

func TestRunDOTExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.dot")
	if err := build(nil, engine.BuildConfig{Scheme: "shatter", DotPath: path, Shards: 16, Workers: 4}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	if !strings.HasPrefix(out, "graph V {") || !strings.Contains(out, "--") {
		t.Errorf("malformed DOT output:\n%s", out)
	}
}

func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := build(ctx, engine.BuildConfig{Scheme: "degree-one"})
	if !errors.Is(err, engine.ErrCancelled) {
		t.Errorf("err = %v, want engine.ErrCancelled", err)
	}
}

// TestNegativeParallelismFlagsRejected runs main in a child process: a
// negative -workers or -shards must fail flag parsing (exit 2) instead of
// running at the default count.
func TestNegativeParallelismFlagsRejected(t *testing.T) {
	if args := os.Getenv("NBHDGRAPH_TEST_ARGS"); args != "" {
		os.Args = append([]string{"nbhdgraph"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, args := range []string{"-workers -3", "-shards -1"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestNegativeParallelismFlagsRejected$")
		cmd.Env = append(os.Environ(), "NBHDGRAPH_TEST_ARGS="+args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "must not be negative") {
			t.Errorf("nbhdgraph %s: err = %v, want exit 2 with a negative-count error; output:\n%s", args, err, out)
		}
	}
}
