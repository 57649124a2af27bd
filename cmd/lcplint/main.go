// Command lcplint is the repository's contract multichecker: it runs the
// custom analyzers of internal/analysis — the determinism suite
// (decoderpurity, maporder, nondet, anonid, obspurity), the hiding-contract
// taint analyzer (certflow), the concurrency pack (atomicmix, gostmt;
// vet's copylocks covers lock copies), the memory-discipline check
// (poolescape), and the cancellation-plumbing check (ctxflow) — over the
// given package patterns and, unless -vet=false, the standard `go vet`
// passes alongside them. It exits non-zero when any diagnostic is
// reported, so CI can gate on a clean run.
//
// Usage:
//
//	lcplint [-vet=false] [-list] [-json FILE] [-annotations] [packages]
//
// With no package arguments it lints ./... . -json writes a
// machine-readable report ("-" for stdout) for CI artifacts; -annotations
// prints GitHub Actions workflow commands so diagnostics surface inline on
// pull requests. The analyzers are built on the standard library's
// go/types source importer, so lcplint needs no modules beyond the
// repository itself; run it from within the module.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"

	"hidinglcp/internal/analysis"
)

func main() {
	vet := flag.Bool("vet", true, "also run the standard `go vet` passes over the same patterns")
	list := flag.Bool("list", false, "list the analyzers and exit")
	jsonOut := flag.String("json", "", "write a JSON report to this file (\"-\" for stdout)")
	annotations := flag.Bool("annotations", false, "emit GitHub Actions ::error workflow commands for each diagnostic")
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	code := 0
	diags, err := lint(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lcplint: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if *annotations {
		printAnnotations(os.Stdout, diags)
	}
	if *jsonOut != "" {
		if err := writeJSONReport(*jsonOut, buildReport(patterns, diags)); err != nil {
			fmt.Fprintf(os.Stderr, "lcplint: %v\n", err)
			os.Exit(2)
		}
	}
	if len(diags) > 0 {
		code = 1
	}

	if *vet {
		if err := runVet(patterns); err != nil {
			code = 1
		}
	}
	os.Exit(code)
}

// lint loads the patterns and applies the full analyzer suite.
func lint(patterns []string) ([]analysis.Diagnostic, error) {
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		return nil, err
	}
	return analysis.RunAnalyzers(pkgs, analysis.All())
}

// report is the stable machine-readable shape CI archives and annotates
// from; Clean mirrors the process exit status so downstream jobs need not
// re-derive it.
type report struct {
	Tool        string             `json:"tool"`
	Patterns    []string           `json:"patterns"`
	Analyzers   []string           `json:"analyzers"`
	Diagnostics []reportDiagnostic `json:"diagnostics"`
	Clean       bool               `json:"clean"`
}

type reportDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// buildReport flattens diagnostics into the archived report shape.
func buildReport(patterns []string, diags []analysis.Diagnostic) report {
	var names []string
	for _, a := range analysis.All() {
		names = append(names, a.Name)
	}
	r := report{
		Tool:        "lcplint",
		Patterns:    patterns,
		Analyzers:   names,
		Diagnostics: []reportDiagnostic{},
		Clean:       len(diags) == 0,
	}
	for _, d := range diags {
		r.Diagnostics = append(r.Diagnostics, reportDiagnostic{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	return r
}

// writeJSONReport writes r as indented JSON to path, or stdout for "-".
func writeJSONReport(path string, r report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printAnnotations renders diagnostics as GitHub Actions workflow commands,
// which the runner turns into inline pull-request annotations.
func printAnnotations(w io.Writer, diags []analysis.Diagnostic) {
	for _, d := range diags {
		fmt.Fprintf(w, "::error file=%s,line=%d,col=%d,title=lcplint/%s::%s\n",
			d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, annotationEscape(d.Message))
	}
}

// annotationEscape applies the workflow-command escaping rules for message
// data (percent, carriage return, newline).
func annotationEscape(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '%':
			out = append(out, "%25"...)
		case '\r':
			out = append(out, "%0D"...)
		case '\n':
			out = append(out, "%0A"...)
		default:
			out = append(out, s[i])
		}
	}
	return string(out)
}

// runVet shells out to the standard vet passes, forwarding their output.
func runVet(patterns []string) error {
	args := append([]string{"vet"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	return cmd.Run()
}
