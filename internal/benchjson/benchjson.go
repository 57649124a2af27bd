// Package benchjson parses `go test -bench` output into a stable JSON
// snapshot schema and compares two snapshots through internal/regress. It
// exists so benchmark evidence can be committed alongside performance work
// and re-checked mechanically in CI.
package benchjson

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one benchmark result line.
type Benchmark struct {
	Name        string  `json:"name"`
	Procs       int     `json:"procs,omitempty"` // GOMAXPROCS the line ran at
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// Snapshot is a dated set of benchmark results plus the run environment.
type Snapshot struct {
	Date       string      `json:"date"`
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Parse reads `go test -bench` output (one or more packages) into a
// Snapshot stamped with date. Lines that are not benchmark results or
// recognized headers are ignored, so the full `go test` output can be piped
// in unfiltered. A name that repeats once its -GOMAXPROCS suffix is
// stripped (output of -count=N or -cpu a,b) is an error: a snapshot holds
// one sample per benchmark.
func Parse(output, date string) (*Snapshot, error) {
	snap := &Snapshot{Date: date}
	for _, line := range strings.Split(output, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "goos:"):
			snap.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			snap.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			if snap.Pkg == "" {
				snap.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			}
			continue
		case strings.HasPrefix(line, "cpu:"):
			snap.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		b, ok, err := parseLine(line)
		if err != nil {
			return nil, err
		}
		if ok {
			snap.Benchmarks = append(snap.Benchmarks, b)
		}
	}
	if len(snap.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found")
	}
	sort.Slice(snap.Benchmarks, func(i, j int) bool {
		return snap.Benchmarks[i].Name < snap.Benchmarks[j].Name
	})
	for i := 1; i < len(snap.Benchmarks); i++ {
		if name := snap.Benchmarks[i].Name; name == snap.Benchmarks[i-1].Name {
			return nil, fmt.Errorf("benchmark %s appears more than once (-count or -cpu output)", name)
		}
	}
	return snap, nil
}

// parseLine parses one result line of the form
//
//	BenchmarkName-8   	  1000	 1234 ns/op	 56 B/op	 7 allocs/op
//
// Reported metrics beyond the iteration count are positional value/unit
// pairs; only ns/op, B/op, and allocs/op are retained.
func parseLine(line string) (Benchmark, bool, error) {
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return Benchmark{}, false, nil
	}
	name, procs := fields[0], 1
	// Strip the -GOMAXPROCS suffix so snapshots from different machines
	// compare by benchmark identity, and keep it as Procs.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], p
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false, nil // e.g. "BenchmarkFoo	--- FAIL"
	}
	b := Benchmark{Name: name, Procs: procs, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false, fmt.Errorf("bad metric value in %q: %w", line, err)
		}
		switch fields[i+1] {
		case "ns/op":
			b.NsPerOp = val
		case "B/op":
			b.BytesPerOp = val
		case "allocs/op":
			b.AllocsPerOp = val
		}
	}
	return b, true, nil
}
