package engine

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"hidinglcp/internal/decoders"
	"hidinglcp/internal/experiments"
	"hidinglcp/internal/faults"
	"hidinglcp/internal/obs"
)

func TestRegistryMatchesDecoders(t *testing.T) {
	r := Default()
	want := decoders.SchemeNames()
	got := r.SchemeNames()
	if len(got) != len(want) {
		t.Fatalf("registry has %d schemes, decoders %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("scheme %d: registry %q, decoders %q", i, got[i], want[i])
		}
		s, err := r.Scheme(want[i])
		if err != nil {
			t.Errorf("Scheme(%q): %v", want[i], err)
			continue
		}
		if s.Decoder == nil || s.Prover == nil {
			t.Errorf("scheme %q incomplete", want[i])
		}
	}
	if _, err := r.Scheme("nope"); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := r.Alphabet("degree-one"); err != nil {
		t.Errorf("Alphabet(degree-one): %v", err)
	}
	if _, err := r.Alphabet("watermelon"); err == nil {
		t.Error("identifier-dependent alphabet accepted")
	}
}

func TestNormalizeExperimentID(t *testing.T) {
	for in, want := range map[string]string{
		"e04": "E4", "E04": "E4", "4": "E4", "E17": "E17", " e1 ": "E1", "bogus": "BOGUS",
	} {
		if got := NormalizeExperimentID(in); got != want {
			t.Errorf("NormalizeExperimentID(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRunnerCountsOutcomes(t *testing.T) {
	sc := obs.NewScope()
	r := Runner{Scope: sc}
	if err := r.Run(nil, Job{Name: "ok", Run: func(context.Context, obs.Scope) error { return nil }}); err != nil {
		t.Fatalf("ok job: %v", err)
	}
	wantErr := errors.New("boom")
	if err := r.Run(nil, Job{Name: "bad", Run: func(context.Context, obs.Scope) error { return wantErr }}); !errors.Is(err, wantErr) {
		t.Fatalf("bad job err = %v", err)
	}
	for name, want := range map[string]int64{
		"engine.jobs.started":   2,
		"engine.jobs.completed": 1,
		"engine.jobs.failed":    1,
	} {
		if got := sc.Registry().Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

func TestRunnerTagsCancellation(t *testing.T) {
	sc := obs.NewScope()
	ctx, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	err := Runner{Scope: sc}.Run(ctx, Default().CheckJob(CheckConfig{
		Scheme: "degree-one", Graph: "path:5", Exhaustive: true, Shards: 4, Workers: 2,
	}))
	if err == nil {
		t.Fatal("pre-cancelled context produced no error")
	}
	if !errors.Is(err, ErrCancelled) {
		t.Errorf("err = %v, want errors.Is(err, ErrCancelled)", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want errors.Is(err, context.Canceled)", err)
	}
	if got := sc.Registry().Counter("engine.jobs.cancelled").Value(); got != 1 {
		t.Errorf("engine.jobs.cancelled = %d, want 1", got)
	}
	if got := sc.Registry().Counter("engine.jobs.failed").Value(); got != 0 {
		t.Errorf("engine.jobs.failed = %d, want 0", got)
	}
}

func TestCheckJobMatchesLegacyOutput(t *testing.T) {
	var buf bytes.Buffer
	err := Runner{}.Run(nil, Default().CheckJob(CheckConfig{
		Scheme: "even-cycle", Graph: "cycle:8", Verbose: true, Conflicts: true,
		Sanitize: true, Out: &buf,
	}))
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"scheme even-cycle on", "accepting nodes: 8/8", "max certificate:",
		"extraction conflicts:", "sanitizer:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCheckJobFaultPlan(t *testing.T) {
	var buf bytes.Buffer
	err := Runner{}.Run(nil, Default().CheckJob(CheckConfig{
		Scheme: "even-cycle", Graph: "cycle:10",
		Plan: faults.Plan{Seed: 7, Drop: 0.3}, Out: &buf,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "verdicts:") {
		t.Errorf("fault run missing verdict summary:\n%s", buf.String())
	}
}

func TestBuildJobCanonicalFamily(t *testing.T) {
	var buf bytes.Buffer
	err := Runner{}.Run(nil, Default().BuildJob(BuildConfig{
		Scheme: "shatter", Shards: 3, Workers: 2, Out: &buf,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "odd cycle:") {
		t.Errorf("shatter family lost its hiding witness:\n%s", buf.String())
	}
}

func TestBuildJobCancelled(t *testing.T) {
	ctx, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	err := Runner{}.Run(ctx, Default().BuildJob(BuildConfig{Scheme: "degree-one"}))
	if !errors.Is(err, ErrCancelled) {
		t.Errorf("err = %v, want ErrCancelled", err)
	}
}

// TestCheckJobDistributedCancelled: the distributed check runs the
// message-passing simulator under the job's context, so -timeout stops it.
func TestCheckJobDistributedCancelled(t *testing.T) {
	ctx, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	job := Default().CheckJob(CheckConfig{Scheme: "even-cycle", Graph: "cycle:8", Distributed: true})
	if err := job.Run(ctx, obs.Scope{}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestExperimentsJobSingle(t *testing.T) {
	var got []string
	err := Runner{}.Run(nil, Default().ExperimentsJob(ExperimentsConfig{
		Only: "E1",
		Emit: func(tb experiments.Table) { got = append(got, tb.ID) },
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "E1" {
		t.Errorf("emitted %v, want [E1]", got)
	}
}

func TestExperimentsJobUnknown(t *testing.T) {
	err := Runner{}.Run(nil, Default().ExperimentsJob(ExperimentsConfig{Only: "E99"}))
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("err = %v, want unknown-experiment error", err)
	}
}

func TestExperimentsJobCancelled(t *testing.T) {
	ctx, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	err := Runner{}.Run(ctx, Default().ExperimentsJob(ExperimentsConfig{Only: "E1"}))
	if !errors.Is(err, ErrCancelled) {
		t.Errorf("err = %v, want ErrCancelled", err)
	}
}
