package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"hidinglcp/internal/obs"
	"hidinglcp/internal/obs/export"
	"hidinglcp/internal/obs/history"
)

// ObsFlags carries the observability flag values shared by every command
// (cmd/experiments, cmd/nbhdgraph, cmd/lcpcheck).
type ObsFlags struct {
	// MetricsJSON is the path the run manifest is written to ("" = off).
	MetricsJSON string
	// TracePath is the path the span trace is written to ("" = off).
	TracePath string
	// Progress enables periodic progress lines on stderr.
	Progress bool
	// Serve is the listen address of the telemetry server ("" = off):
	// /metrics, /healthz, /readyz, /trace, /debug/pprof.
	Serve string
	// HistoryDir appends the finalized manifest into this run-history
	// directory ("" = off); cmd/obsdiff gates on it.
	HistoryDir string

	// Warn receives artifact-failure warnings (nil = os.Stderr). Tests
	// inject a buffer here.
	Warn io.Writer
}

// RegisterObsFlags declares the shared observability flags on the default
// flag set and returns the destination struct, to be read after
// flag.Parse.
func RegisterObsFlags() *ObsFlags {
	var f ObsFlags
	flag.StringVar(&f.MetricsJSON, "metrics-json", "", "write a run manifest (metrics, config, timings) to this JSON file")
	flag.StringVar(&f.TracePath, "trace", "", "write the span trace to this JSON file")
	flag.BoolVar(&f.Progress, "progress", false, "print periodic progress lines with ETA to stderr")
	flag.StringVar(&f.Serve, "serve", "", "serve live telemetry (/metrics, /healthz, /trace, pprof) on this address (e.g. :9090)")
	flag.StringVar(&f.HistoryDir, "history", "", "append the finalized run manifest into this history directory")
	return &f
}

// enabled reports whether any observability flag asks for a live scope.
func (f *ObsFlags) enabled() bool {
	return f.MetricsJSON != "" || f.TracePath != "" || f.Progress ||
		f.Serve != "" || f.HistoryDir != ""
}

// warnTo returns the warning destination.
func (f *ObsFlags) warnTo() io.Writer {
	if f.Warn != nil {
		return f.Warn
	}
	return os.Stderr
}

// Setup builds the observability scope the flags request and returns it
// with the run manifest (nil unless -metrics-json or -history is set;
// SetConfig on a nil manifest is a safe no-op) and a finish callback. The
// callback must be invoked exactly once with the run's error: it stops the
// progress reporter, shuts the telemetry server down, finalizes
// and writes the manifest (and appends it to the history dir), and writes
// the trace. Every artifact failure is warned
// individually on Warn (default stderr); the returned error is the run's
// own error when there is one, else the first artifact failure — so an
// otherwise-clean run exits nonzero when its artifacts could not be
// written instead of silently dropping them.
//
// With no flags set, the returned scope is the zero no-op Scope and finish
// only forwards the run error — commands can call Setup unconditionally.
func (f *ObsFlags) Setup(tool string, args []string) (obs.Scope, *obs.RunManifest, func(error) error) {
	if !f.enabled() {
		return obs.Scope{}, nil, func(runErr error) error { return runErr }
	}

	// One shared writability check over every artifact destination, up
	// front: an unwritable directory is warned about before the run burns
	// any work, and the failure is carried into finish so an otherwise
	// clean run still exits nonzero (the actual write failures at finish
	// are recorded too, but this catches them while they are cheap).
	historyProbe := ""
	if f.HistoryDir != "" {
		historyProbe = filepath.Join(f.HistoryDir, "manifest.json")
	}
	upfrontErr := checkArtifacts(
		func(what string, err error) { fmt.Fprintf(f.warnTo(), "%s: %s: %v\n", tool, what, err) },
		[]artifactDest{
			{"run manifest destination", f.MetricsJSON},
			{"trace destination", f.TracePath},
			{"history directory", historyProbe},
		})

	sc := obs.NewScope()
	var tracer *obs.Tracer
	if f.MetricsJSON != "" || f.TracePath != "" || f.Serve != "" || f.HistoryDir != "" {
		tracer = obs.NewTracer(0) // default capacity
		sc = sc.WithTracer(tracer)
	}
	var prog *obs.Progress
	if f.Progress {
		prog = obs.NewProgress(os.Stderr, 0) // default interval
		sc = sc.WithProgress(prog)
	}

	var manifest *obs.RunManifest
	if f.MetricsJSON != "" || f.HistoryDir != "" {
		manifest = obs.NewManifest(tool, args)
	}

	var telemetry *export.Server
	if f.Serve != "" {
		srv, err := export.Serve(f.Serve, export.ServerOptions{
			Registry: sc.Registry(),
			Tracer:   tracer,
		})
		if err != nil {
			fmt.Fprintf(f.warnTo(), "%s: telemetry server: %v\n", tool, err)
		} else {
			telemetry = srv
			telemetry.MarkReady()
			fmt.Fprintf(os.Stderr, "%s: live telemetry on http://%s/metrics\n", tool, telemetry.Addr())
		}
	}

	finish := func(runErr error) error {
		if prog != nil {
			prog.Close()
		}
		firstArtifactErr := upfrontErr
		record := func(what string, err error) {
			if err == nil {
				return
			}
			fmt.Fprintf(f.warnTo(), "%s: %s: %v\n", tool, what, err)
			if firstArtifactErr == nil {
				firstArtifactErr = err
			}
		}
		// Stop the live plane first so nothing scrapes a half-finalized
		// registry, then freeze and persist.
		if telemetry != nil {
			record("telemetry server shutdown", telemetry.Close())
		}
		if manifest != nil {
			manifest.Finalize(sc, runErr)
			if f.MetricsJSON != "" {
				record("writing run manifest", manifest.WriteFile(f.MetricsJSON))
			}
			if f.HistoryDir != "" {
				_, err := history.Append(f.HistoryDir, manifest)
				record("appending run history", err)
			}
		}
		if f.TracePath != "" && tracer != nil {
			file, err := os.Create(f.TracePath)
			if err != nil {
				record("writing trace", err)
			} else {
				record("writing trace", tracer.WriteJSON(file))
				record("writing trace", file.Close())
			}
		}
		if runErr != nil {
			return runErr
		}
		return firstArtifactErr
	}
	return sc, manifest, finish
}
