package sanitize

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"hidinglcp/internal/core"
	"hidinglcp/internal/nbhd"
	"hidinglcp/internal/obs"
)

// Goroutine-leak probe: the dynamic complement of the concurrency
// analyzers (atomicmix, gostmt). The parallel pipelines —
// nbhd.BuildShardedCtx's work-stealing builders and
// core.ExhaustiveStrongSoundnessParallelCtx's searchers — promise that every
// goroutine they spawn has exited by the time they return. A worker that
// outlives its barrier is a latent bug even when the answer is right: it
// holds shard state alive, keeps racing with the next phase, and
// accumulates across a sweep until the process starves. The probe
// snapshots the runtime's goroutine set around a call and attributes every
// survivor by its creation site.

// GoroutineInfo describes one live goroutine from a runtime stack dump.
type GoroutineInfo struct {
	// ID is the runtime's goroutine id.
	ID int
	// State is the scheduler state from the dump header ("running",
	// "chan receive", "semacquire", ...).
	State string
	// Top is the innermost function on the goroutine's stack.
	Top string
	// CreatedBy is the function that spawned the goroutine (the "created
	// by" attribution line), or "" for the main goroutine.
	CreatedBy string
	// Stack is the goroutine's raw stack block from the dump.
	Stack string
}

// LeakReport lists goroutines that were born during a probed call and
// still ran after it returned (and after a drain grace period).
type LeakReport struct {
	// Before and After are the goroutine counts around the call.
	Before, After int
	// Leaked holds the surviving goroutines, attributed by creation site.
	Leaked []GoroutineInfo
}

// Error implements error with one attribution line per leaked goroutine.
func (r *LeakReport) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "goroutine leak: %d goroutine(s) outlived the probed call (%d before, %d after)",
		len(r.Leaked), r.Before, r.After)
	for _, g := range r.Leaked {
		fmt.Fprintf(&b, "\n  goroutine %d [%s] at %s", g.ID, g.State, g.Top)
		if g.CreatedBy != "" {
			fmt.Fprintf(&b, " (created by %s)", g.CreatedBy)
		}
	}
	return b.String()
}

// leakDrainAttempts x leakDrainStep is the grace period granted for
// legitimately winding-down goroutines (a worker between its last send and
// its return) before a survivor counts as leaked.
const (
	leakDrainAttempts = 50
	leakDrainStep     = 10 * time.Millisecond
)

// LeakCheck runs f and reports goroutines that exist after it returns but
// did not exist before it started, after a drain grace period. A nil
// report means f cleaned up after itself.
//
// The comparison is by goroutine id, so goroutines that predate f (timer
// goroutines, the test runner's pool) never count against it.
func LeakCheck(f func()) *LeakReport {
	before := goroutineSnapshot()
	known := make(map[int]bool, len(before))
	for _, g := range before {
		known[g.ID] = true
	}

	f()

	var after []GoroutineInfo
	var leaked []GoroutineInfo
	for attempt := 0; attempt < leakDrainAttempts; attempt++ {
		after = goroutineSnapshot()
		leaked = leaked[:0]
		for _, g := range after {
			if !known[g.ID] {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 {
			return nil
		}
		time.Sleep(leakDrainStep)
	}
	return &LeakReport{Before: len(before), After: len(after), Leaked: leaked}
}

// ProbeBuildSharded runs nbhd.BuildShardedCtx under the leak probe. The
// builder's contract is that its worker pool has fully exited on return;
// a non-nil LeakReport is a contract violation regardless of err.
func ProbeBuildSharded(d core.Decoder, se nbhd.ShardedEnumerator, shards, workers int) (*nbhd.NGraph, *LeakReport, error) {
	var g *nbhd.NGraph
	var err error
	leak := LeakCheck(func() {
		g, err = nbhd.BuildShardedCtx(context.Background(), obs.Scope{}, d, se, shards, workers)
	})
	return g, leak, err
}

// ProbeExhaustiveStrongSoundnessParallel runs the parallel soundness
// search under the leak probe; same contract as ProbeBuildSharded.
func ProbeExhaustiveStrongSoundnessParallel(d core.Decoder, lang core.Language, inst core.Instance, alphabet []string, shards, workers int) (*LeakReport, error) {
	var err error
	leak := LeakCheck(func() {
		err = core.ExhaustiveStrongSoundnessParallelCtx(context.Background(), obs.Scope{}, d, lang, inst, alphabet, shards, workers)
	})
	return leak, err
}

// goroutineSnapshot parses a full runtime stack dump into per-goroutine
// records.
func goroutineSnapshot() []GoroutineInfo {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	return parseGoroutineDump(string(buf))
}

// parseGoroutineDump splits a runtime.Stack(..., true) dump into records.
// Each block looks like:
//
//	goroutine 18 [chan receive]:
//	hidinglcp/internal/nbhd.worker(...)
//		/path/shard.go:203 +0x1b
//	created by hidinglcp/internal/nbhd.BuildSharded in goroutine 1
//		/path/parallel.go:30 +0x5c
func parseGoroutineDump(dump string) []GoroutineInfo {
	var out []GoroutineInfo
	for _, block := range strings.Split(strings.TrimSpace(dump), "\n\n") {
		lines := strings.Split(block, "\n")
		if len(lines) == 0 {
			continue
		}
		header := lines[0]
		if !strings.HasPrefix(header, "goroutine ") {
			continue
		}
		rest := strings.TrimPrefix(header, "goroutine ")
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			continue
		}
		id, err := strconv.Atoi(rest[:sp])
		if err != nil {
			continue
		}
		state := strings.Trim(strings.TrimSuffix(strings.TrimSpace(rest[sp+1:]), ":"), "[]")
		// Scheduler annotations like "chan receive, 2 minutes" keep only
		// the state word(s).
		if c := strings.IndexByte(state, ','); c >= 0 {
			state = state[:c]
		}
		g := GoroutineInfo{ID: id, State: state, Stack: block}
		if len(lines) > 1 {
			g.Top = strings.TrimSpace(lines[1])
			if p := strings.IndexByte(g.Top, '('); p > 0 {
				g.Top = g.Top[:p]
			}
		}
		for _, l := range lines {
			if strings.HasPrefix(l, "created by ") {
				created := strings.TrimPrefix(l, "created by ")
				if in := strings.Index(created, " in goroutine"); in >= 0 {
					created = created[:in]
				}
				g.CreatedBy = strings.TrimSpace(created)
				break
			}
		}
		out = append(out, g)
	}
	return out
}

// TestParseGoroutineDump pins the dump grammar the probes depend on: header
// id and state, top-of-stack frame, and "created by" attribution, including
// the Go 1.21+ "in goroutine N" suffix and scheduler duration annotations.
func TestParseGoroutineDump(t *testing.T) {
	dump := "goroutine 1 [running]:\n" +
		"main.main()\n" +
		"\t/src/main.go:10 +0x1a\n" +
		"\n" +
		"goroutine 18 [chan receive, 2 minutes]:\n" +
		"hidinglcp/internal/nbhd.worker(0x2, 0xc000010000)\n" +
		"\t/src/shard.go:203 +0x1b\n" +
		"created by hidinglcp/internal/nbhd.BuildSharded in goroutine 1\n" +
		"\t/src/parallel.go:30 +0x5c\n" +
		"\n" +
		"goroutine 19 [semacquire]:\n" +
		"sync.runtime_Semacquire(0xc00001c0c8)\n" +
		"\t/go/src/runtime/sema.go:62 +0x25\n" +
		"created by main.spawn\n" +
		"\t/src/main.go:20 +0x33\n"

	gs := parseGoroutineDump(dump)
	if len(gs) != 3 {
		t.Fatalf("parsed %d goroutines, want 3: %+v", len(gs), gs)
	}

	if g := gs[0]; g.ID != 1 || g.State != "running" || g.Top != "main.main" || g.CreatedBy != "" {
		t.Errorf("main goroutine parsed as %+v", g)
	}
	if g := gs[1]; g.ID != 18 || g.State != "chan receive" ||
		g.Top != "hidinglcp/internal/nbhd.worker" ||
		g.CreatedBy != "hidinglcp/internal/nbhd.BuildSharded" {
		t.Errorf("worker goroutine parsed as %+v", g)
	}
	if g := gs[2]; g.ID != 19 || g.State != "semacquire" || g.CreatedBy != "main.spawn" {
		t.Errorf("semacquire goroutine parsed as %+v", g)
	}
}

// TestParseGoroutineDumpIgnoresJunk: malformed blocks must be skipped, not
// mis-parsed into phantom goroutines.
func TestParseGoroutineDumpIgnoresJunk(t *testing.T) {
	dump := "not a goroutine header\nsome frame\n\n" +
		"goroutine nan [running]:\nframe()\n\n" +
		"goroutine 7 [runnable]:\nf()\n\t/x.go:1 +0x1\n"
	gs := parseGoroutineDump(dump)
	if len(gs) != 1 || gs[0].ID != 7 || gs[0].State != "runnable" {
		t.Fatalf("parsed %+v, want exactly goroutine 7", gs)
	}
}
