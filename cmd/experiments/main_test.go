package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"hidinglcp/internal/engine"
	"hidinglcp/internal/obs"
)

func TestRunList(t *testing.T) {
	if err := run(nil, obs.Scope{}, engine.Default(), "", true); err != nil {
		t.Errorf("list mode: %v", err)
	}
}

func TestRunSingle(t *testing.T) {
	// E1 is the fastest experiment; running it end to end exercises the
	// whole dispatch path.
	if err := run(nil, obs.Scope{}, engine.Default(), "E1", false); err != nil {
		t.Errorf("run E1: %v", err)
	}
}

func TestRunUnknown(t *testing.T) {
	if err := run(nil, obs.Scope{}, engine.Default(), "E99", false); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, obs.Scope{}, engine.Default(), "E1", false)
	if !errors.Is(err, engine.ErrCancelled) {
		t.Errorf("err = %v, want engine.ErrCancelled", err)
	}
}

// TestNegativeParallelismFlagsRejected runs main in a child process: a
// negative -workers or -shards must fail flag parsing (exit 2) instead of
// running at the default count.
func TestNegativeParallelismFlagsRejected(t *testing.T) {
	if args := os.Getenv("EXPERIMENTS_TEST_ARGS"); args != "" {
		os.Args = append([]string{"experiments"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, args := range []string{"-list -workers -3", "-list -shards -1"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestNegativeParallelismFlagsRejected$")
		cmd.Env = append(os.Environ(), "EXPERIMENTS_TEST_ARGS="+args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "must not be negative") {
			t.Errorf("experiments %s: err = %v, want exit 2 with a negative-count error; output:\n%s", args, err, out)
		}
	}
}
