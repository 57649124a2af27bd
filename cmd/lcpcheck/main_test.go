package main

import (
	"context"
	"errors"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"

	"hidinglcp/internal/engine"
	"hidinglcp/internal/faults"
	"hidinglcp/internal/obs"
)

// check drives the pipeline the way main does, with output discarded.
func check(ctx context.Context, cfg engine.CheckConfig) error {
	cfg.Out = io.Discard
	return run(ctx, obs.Scope{}, engine.Default(), cfg)
}

func TestRunSchemes(t *testing.T) {
	tests := []struct {
		name        string
		scheme      string
		graph       string
		distributed bool
		wantErr     bool
	}{
		{"trivial on grid", "trivial", "grid:3x3", false, false},
		{"degree-one on path", "degree-one", "path:6", false, false},
		{"even cycle", "even-cycle", "cycle:8", false, false},
		{"even cycle distributed", "even-cycle", "cycle:8", true, false},
		{"watermelon", "watermelon", "watermelon:2,4,2", false, false},
		{"shatter", "shatter", "grid:3x4", false, false},
		{"union on star", "union", "star:5", false, false},
		{"prover rejects", "even-cycle", "cycle:7", false, true},
		{"unknown scheme", "bogus", "path:3", false, true},
		{"bad graph", "trivial", "nope:1", false, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := check(nil, engine.CheckConfig{
				Scheme: tt.scheme, Graph: tt.graph,
				Verbose: true, Conflicts: true, Distributed: tt.distributed, Sanitize: true,
			})
			if (err != nil) != tt.wantErr {
				t.Errorf("run() err = %v, wantErr = %v", err, tt.wantErr)
			}
		})
	}
}

// TestRunFaulty drives the fault path: active plans degrade into verdict
// reports (no completeness error), invalid plans error out.
func TestRunFaulty(t *testing.T) {
	tests := []struct {
		name    string
		scheme  string
		graph   string
		plan    faults.Plan
		wantErr bool
	}{
		{"drop on even cycle", "even-cycle", "cycle:10", faults.Plan{Seed: 7, Drop: 0.3}, false},
		{"crash on grid", "trivial", "grid:3x3", faults.Plan{Crashes: map[int]int{4: 0}}, false},
		{"corrupt with trace", "even-cycle", "cycle:8", faults.Plan{CorruptNodes: []int{1}, Trace: true}, false},
		{"chaos on spider", "degree-one", "spider:2,3,1", faults.Plan{Seed: 3, Drop: 0.2, Duplicate: 0.2, Reorder: true}, false},
		{"invalid probability", "trivial", "path:4", faults.Plan{Drop: 2}, true},
		{"crash node out of range", "trivial", "path:4", faults.Plan{Crashes: map[int]int{99: 0}}, true},
		{"prover rejects under faults", "even-cycle", "cycle:7", faults.Plan{Drop: 0.1}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := check(nil, engine.CheckConfig{
				Scheme: tt.scheme, Graph: tt.graph, Plan: tt.plan, Verbose: true,
			})
			if (err != nil) != tt.wantErr {
				t.Errorf("run() err = %v, wantErr = %v", err, tt.wantErr)
			}
		})
	}
}

func TestRunExhaustive(t *testing.T) {
	tests := []struct {
		name    string
		scheme  string
		graph   string
		wantErr bool
	}{
		{"trivial on path", "trivial", "path:4", false},
		{"degree-one on path", "degree-one", "path:5", false},
		{"sharded degree-one", "degree-one", "path:5", false},
		{"no finite alphabet", "shatter", "grid:3x4", true},
		{"space too large", "even-cycle", "cycle:8", true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := check(nil, engine.CheckConfig{
				Scheme: tt.scheme, Graph: tt.graph, Exhaustive: true, Shards: 8, Workers: 2,
			})
			if (err != nil) != tt.wantErr {
				t.Errorf("run() err = %v, wantErr = %v", err, tt.wantErr)
			}
		})
	}
}

// TestRunCancelled pins the CLI contract: a context that fired surfaces as
// engine.ErrCancelled (main translates it into exit code 2).
func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := check(ctx, engine.CheckConfig{
		Scheme: "degree-one", Graph: "path:5", Exhaustive: true, Shards: 8, Workers: 2,
	})
	if !errors.Is(err, engine.ErrCancelled) {
		t.Errorf("err = %v, want engine.ErrCancelled", err)
	}
}

// TestNegativeParallelismFlagsRejected runs main in a child process: a
// negative -workers or -shards must fail flag parsing (exit 2) instead of
// running at the default count.
func TestNegativeParallelismFlagsRejected(t *testing.T) {
	if args := os.Getenv("LCPCHECK_TEST_ARGS"); args != "" {
		os.Args = append([]string{"lcpcheck"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, args := range []string{"-exhaustive -workers -3", "-exhaustive -shards -1"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestNegativeParallelismFlagsRejected$")
		cmd.Env = append(os.Environ(), "LCPCHECK_TEST_ARGS="+args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "must not be negative") {
			t.Errorf("lcpcheck %s: err = %v, want exit 2 with a negative-count error; output:\n%s", args, err, out)
		}
	}
}
