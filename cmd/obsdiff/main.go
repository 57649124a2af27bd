// Command obsdiff is the longitudinal gate of the telemetry plane: it
// appends run manifests into a history directory, diffs the latest run
// against a baseline under field-wise thresholds, checks the pipelines'
// cross-metric invariants (extracted = hits + misses; fault-verdict
// conservation), and renders JSON and Markdown regression reports.
//
// Usage:
//
//	obsdiff append  -dir runs/history MANIFEST.json...
//	obsdiff diff    [-fail-on-regress] [-thresholds F]
//	                [-json OUT.json] [-md OUT.md] BASELINE.json LATEST.json
//	obsdiff gate    [-fail-on-regress] [-thresholds F] [-tool T] [-trend N]
//	                [-json OUT.json] [-md OUT.md] -baseline BASELINE.json -dir runs/history
//
// diff compares two explicit manifests. gate compares the newest manifest
// in the history dir (optionally filtered by tool) against a committed
// baseline, with the trend table drawn from the last N history entries.
// The thresholds file defaults to .obs-thresholds.json. With
// -fail-on-regress either mode exits 1 when a threshold is exceeded, a
// baseline metric is missing, or an invariant is violated; either mode
// fails when the baseline has no metric the latest run reports.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"hidinglcp/internal/obs"
	"hidinglcp/internal/obs/history"
	"hidinglcp/internal/regress"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "append":
		appendMain(os.Args[2:])
	case "diff":
		diffMain(os.Args[2:])
	case "gate":
		gateMain(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: obsdiff append|diff|gate [flags] ...")
	os.Exit(2)
}

// appendMain copies finalized manifests into the history directory under
// chronologically-sorting names.
func appendMain(args []string) {
	fs := flag.NewFlagSet("append", flag.ExitOnError)
	dir := fs.String("dir", "runs/history", "history directory")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: obsdiff append -dir DIR MANIFEST.json...")
		os.Exit(2)
	}
	for _, path := range fs.Args() {
		m, err := history.ReadManifest(path)
		if err != nil {
			fatal(err)
		}
		dst, err := history.Append(*dir, m)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("appended %s -> %s\n", path, dst)
	}
}

// diffFlags are the reporting knobs diff and gate share.
type diffFlags struct {
	thresholds    *string
	failOnRegress *bool
	jsonOut       *string
	mdOut         *string
}

func registerDiffFlags(fs *flag.FlagSet) diffFlags {
	return diffFlags{
		thresholds:    fs.String("thresholds", ".obs-thresholds.json", "JSON thresholds file"),
		failOnRegress: fs.Bool("fail-on-regress", false, "exit 1 when any limit is exceeded or an invariant is violated"),
		jsonOut:       fs.String("json", "", "write the JSON report to this path"),
		mdOut:         fs.String("md", "", "write the Markdown report to this path"),
	}
}

// diff runs history.Diff under the thresholds file the flags name.
func diff(base, latest *obs.RunManifest, df diffFlags) *regress.Report {
	th, err := regress.LoadThresholds(*df.thresholds)
	if err != nil {
		fatal(err)
	}
	rep, err := history.Diff(base, latest, th)
	if err != nil {
		fatal(err)
	}
	return rep
}

// diffMain compares two explicit manifest files.
func diffMain(args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	df := registerDiffFlags(fs)
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: obsdiff diff [flags] BASELINE.json LATEST.json")
		os.Exit(2)
	}
	base, err := history.ReadManifest(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	latest, err := history.ReadManifest(fs.Arg(1))
	if err != nil {
		fatal(err)
	}
	report(diff(base, latest, df), df)
}

// gateMain compares the newest history entry against a committed baseline.
func gateMain(args []string) {
	fs := flag.NewFlagSet("gate", flag.ExitOnError)
	df := registerDiffFlags(fs)
	dir := fs.String("dir", "runs/history", "history directory")
	baseline := fs.String("baseline", "", "committed baseline manifest (required)")
	tool := fs.String("tool", "", "gate only this tool's runs (default: all)")
	trend := fs.Int("trend", 0, "include a trend table over the last N history runs")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if *baseline == "" {
		fmt.Fprintln(os.Stderr, "usage: obsdiff gate -baseline BASELINE.json -dir DIR")
		os.Exit(2)
	}
	base, err := history.ReadManifest(*baseline)
	if err != nil {
		fatal(err)
	}
	entries, err := history.LoadTool(*dir, *tool)
	if err != nil {
		fatal(err)
	}
	latest := history.Latest(entries)
	if latest == nil {
		fatal(fmt.Errorf("no runs in history dir %s (tool %q)", *dir, *tool))
	}
	rep := diff(base, latest.Manifest, df)
	if n := *trend; n > 0 {
		if n > len(entries) {
			n = len(entries)
		}
		history.AddTrend(rep, entries[len(entries)-n:])
	}
	report(rep, df)
}

// report renders the outcome to stdout and the requested artifacts, then
// applies the gate policy.
func report(rep *regress.Report, df diffFlags) {
	if err := rep.WriteMarkdown(os.Stdout); err != nil {
		fatal(err)
	}
	if *df.jsonOut != "" {
		if err := writeWith(*df.jsonOut, rep.WriteJSON); err != nil {
			fatal(err)
		}
	}
	if *df.mdOut != "" {
		if err := writeWith(*df.mdOut, rep.WriteMarkdown); err != nil {
			fatal(err)
		}
	}
	if rep.HasRegressions() {
		fmt.Fprintf(os.Stderr, "obsdiff: %d regression(s):\n", len(rep.Regressions))
		for _, r := range rep.Regressions {
			fmt.Fprintf(os.Stderr, "  %s\n", r)
		}
		if *df.failOnRegress {
			os.Exit(1)
		}
	}
}

func writeWith(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close() //nolint:errcheck // render error wins
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "obsdiff:", err)
	os.Exit(1)
}
