// Command manifestcheck validates run-manifest JSON files (written by the
// -metrics-json flag of cmd/experiments, cmd/lcpcheck, and cmd/nbhdgraph)
// against the checked-in schema, so CI and scripts can gate on manifests
// being well-formed before archiving them.
//
// Usage:
//
//	manifestcheck out/e04.json out/e03.json
//	manifestcheck -schema docs/run-manifest.schema.json -require-metrics out/e04.json
//
// -require-metrics additionally fails manifests whose metric snapshot is
// empty or all-zero: a pipeline run that recorded nothing usually means the
// scope was never threaded through, which a schema check alone cannot see.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"hidinglcp/internal/obs"
)

func main() {
	schemaPath := flag.String("schema", "docs/run-manifest.schema.json", "path to the run-manifest JSON schema")
	requireMetrics := flag.Bool("require-metrics", false, "fail manifests with an empty or all-zero metric snapshot")
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "manifestcheck: no manifest files given")
		os.Exit(2)
	}
	schema, err := os.ReadFile(*schemaPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "manifestcheck: %v\n", err)
		os.Exit(2)
	}
	failed := false
	for _, path := range flag.Args() {
		if err := checkFile(schema, path, *requireMetrics); err != nil {
			fmt.Fprintf(os.Stderr, "manifestcheck: %s: %v\n", path, err)
			failed = true
			continue
		}
		fmt.Printf("%s: ok\n", path)
	}
	if failed {
		os.Exit(1)
	}
}

func checkFile(schema []byte, path string, requireMetrics bool) error {
	doc, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := obs.ValidateJSON(schema, doc); err != nil {
		return err
	}
	if requireMetrics {
		return checkNonzeroMetrics(doc)
	}
	return nil
}

// checkNonzeroMetrics fails unless at least one counter or gauge recorded a
// nonzero value (histograms count through their sample count).
func checkNonzeroMetrics(doc []byte) error {
	var m obs.RunManifest
	if err := json.Unmarshal(doc, &m); err != nil {
		return err
	}
	if len(m.Metrics) == 0 {
		return fmt.Errorf("manifest has no metric snapshots; was the obs scope threaded through the run?")
	}
	for _, s := range m.Metrics {
		if s.Value != 0 || s.Count != 0 {
			return nil
		}
	}
	return fmt.Errorf("all %d metric snapshots are zero; the instrumented pipeline recorded nothing", len(m.Metrics))
}
