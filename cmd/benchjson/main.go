// Command benchjson converts `go test -bench` output into a committed,
// machine-readable benchmark snapshot (BENCH_<date>.json), and its diff
// subcommand compares two snapshots under the shared regression thresholds.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | go run ./cmd/benchjson -o BENCH_2026-08-06.json
//	go run ./cmd/benchjson diff [-fail-on-regress] [-thresholds F] BENCH_old.json BENCH_new.json
//
// diff prints a Markdown report with every benchmark's ns/op, B/op and
// allocs/op ratio, checked against the limits in the thresholds file
// (default .bench-thresholds.json). Without -fail-on-regress it always exits
// 0; with it, it exits 1 when a limit is exceeded or a baseline benchmark is
// missing from the new snapshot.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"hidinglcp/internal/benchjson"
	"hidinglcp/internal/regress"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		diffMain(os.Args[2:])
		return
	}
	out := flag.String("o", "", "output path (default BENCH_<date>.json)")
	date := flag.String("date", "", "date stamp for the default output name (default today)")
	flag.Parse()

	raw, err := io.ReadAll(os.Stdin)
	if err != nil {
		fatal(err)
	}
	d := *date
	if d == "" {
		d = time.Now().Format("2006-01-02")
	}
	snap, err := benchjson.Parse(string(raw), d)
	if err != nil {
		fatal(err)
	}
	path := *out
	if path == "" {
		path = "BENCH_" + d + ".json"
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", path, len(snap.Benchmarks))
}

// diffMain implements the diff subcommand: threshold-checked comparison of
// two snapshots with an optional hard-fail exit for CI gating.
func diffMain(args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	thresholdsPath := fs.String("thresholds", ".bench-thresholds.json", "JSON thresholds file")
	failOnRegress := fs.Bool("fail-on-regress", false, "exit 1 when any limit is exceeded")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchjson diff [flags] OLD.json NEW.json")
		os.Exit(2)
	}
	th, err := regress.LoadThresholds(*thresholdsPath)
	if err != nil {
		fatal(err)
	}
	old, err := readSnapshot(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	cur, err := readSnapshot(fs.Arg(1))
	if err != nil {
		fatal(err)
	}
	rep, err := benchjson.Diff(old, cur, th)
	if err != nil {
		fatal(err)
	}
	if err := rep.WriteMarkdown(os.Stdout); err != nil {
		fatal(err)
	}
	if rep.HasRegressions() {
		fmt.Fprintf(os.Stderr, "benchjson: %d regression(s):\n", len(rep.Regressions))
		for _, r := range rep.Regressions {
			fmt.Fprintf(os.Stderr, "  %s\n", r)
		}
		if *failOnRegress {
			os.Exit(1)
		}
	}
}

func readSnapshot(path string) (*benchjson.Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchjson.Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
