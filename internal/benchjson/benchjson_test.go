package benchjson

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: hidinglcp
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkE3DegreeOne      	       2	 102806824 ns/op	71563188 B/op	 1738803 allocs/op
BenchmarkViewExtract-8 	     500	      4687 ns/op	    3548 B/op	      16 allocs/op
BenchmarkViewKey/with-ids   	     200	      6437 ns/op	    4800 B/op	      30 allocs/op
BenchmarkNoMem 	    1000	       123 ns/op
PASS
ok  	hidinglcp	1.288s
`

func TestParse(t *testing.T) {
	snap, err := Parse(sample, "2026-08-06")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Goos != "linux" || snap.Goarch != "amd64" || snap.Pkg != "hidinglcp" {
		t.Fatalf("bad header: %+v", snap)
	}
	if len(snap.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(snap.Benchmarks))
	}
	byName := map[string]Benchmark{}
	for _, b := range snap.Benchmarks {
		byName[b.Name] = b
	}
	e3 := byName["BenchmarkE3DegreeOne"]
	if e3.Iterations != 2 || e3.NsPerOp != 102806824 || e3.AllocsPerOp != 1738803 {
		t.Fatalf("E3 parsed wrong: %+v", e3)
	}
	// The -8 GOMAXPROCS suffix must be stripped and kept as Procs; a line
	// without one ran at GOMAXPROCS=1.
	if ve, ok := byName["BenchmarkViewExtract"]; !ok || ve.Procs != 8 {
		t.Fatalf("GOMAXPROCS suffix not stripped into Procs: %v", byName)
	}
	if e3.Procs != 1 {
		t.Fatalf("E3 Procs = %d, want 1 (no suffix)", e3.Procs)
	}
	if sub, ok := byName["BenchmarkViewKey/with-ids"]; !ok || sub.NsPerOp != 6437 {
		t.Fatalf("sub-benchmark parsed wrong: %+v", sub)
	}
	if nm := byName["BenchmarkNoMem"]; nm.NsPerOp != 123 || nm.AllocsPerOp != 0 {
		t.Fatalf("plain bench parsed wrong: %+v", nm)
	}
	// Deterministic order.
	for i := 1; i < len(snap.Benchmarks); i++ {
		if snap.Benchmarks[i-1].Name > snap.Benchmarks[i].Name {
			t.Fatal("benchmarks not sorted by name")
		}
	}
	// -count=N repeats a line and -cpu 1,2 gives BenchmarkA and BenchmarkA-2,
	// both BenchmarkA once stripped: one snapshot holds one sample per name.
	for name, out := range map[string]string{
		"count": "BenchmarkA-2 10 5 ns/op\nBenchmarkA-2 10 6 ns/op\n",
		"cpu":   "BenchmarkA 10 5 ns/op\nBenchmarkA-2 10 6 ns/op\n",
	} {
		if _, err := Parse(out, "d"); err == nil || !strings.Contains(err.Error(), "BenchmarkA") {
			t.Errorf("%s: Parse = %v, want an error naming BenchmarkA", name, err)
		}
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := Parse("PASS\nok x 0.1s\n", "d"); err == nil {
		t.Fatal("expected error on output with no benchmarks")
	}
}
