package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"hidinglcp/internal/core"
	"hidinglcp/internal/view"
)

func TestMain(m *testing.M) {
	// The benchmark measures in child processes of itself; under go test
	// the test binary plays that part.
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	// The benchmark runs from the repository root: it reads
	// BENCHMARK.json and EXPERIMENTS.md and writes bench/out there.
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// benchmarkJSON is BENCHMARK.json as the tests read it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program's
// workload and metric tables in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, s := range specs {
		want = append(want, s.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	var e2e, layer []metric
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metric{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metric{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program prints %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program prints %v", layer, perLayer)
	}
}

// runLine runs the benchmark command in-process and decodes its last
// output line.
func runLine(t *testing.T, args ...string) (result, int) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	var r result
	dec := json.NewDecoder(bytes.NewReader(lastLine(out.Bytes())))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("%v: result line: %v\nstdout:\n%s\nstderr:\n%s", args, err, out.String(), errOut.String())
	}
	return r, code
}

// TestSmokeEveryMetricPrinted runs every workload for two jobs, untraced
// and traced, and checks the result line against BENCHMARK.json.
func TestSmokeEveryMetricPrinted(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range b.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				r, code := runLine(t, "--workload", w.Name, "--seed", "1", "--seconds", "0", "--trace", trace)
				if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted < 2 {
					t.Fatalf("exit %d, result %+v", code, r)
				}
				want := map[string]string{}
				if trace == "0" {
					for _, m := range b.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range b.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(r.Metrics), len(want))
				}
				for name, unit := range want {
					v, ok := r.Metrics[name]
					if !ok || v.Unit != unit {
						t.Errorf("%s: printed %+v (present %v), want unit %s", name, v, ok, unit)
					}
				}
				if trace == "0" {
					for name, v := range r.Metrics {
						if !(v.Value > 0) {
							t.Errorf("end-to-end %s = %v, want > 0", name, v.Value)
						}
					}
				}
			})
		}
	}
}

// TestChecksAreLive perturbs one pinned output per workload and expects
// every job to fail.
func TestChecksAreLive(t *testing.T) {
	cases := []struct {
		name  string
		build func(seed int64, workers int) (workload, error)
	}{
		{"build-vdn4", func(seed int64, workers int) (workload, error) {
			b := newBuild(seed, workers)
			b.slices[0].views = 61
			return b, nil
		}},
		{"sweep-n10", func(seed int64, workers int) (workload, error) {
			s, err := newSweep(seed, workers)
			if err != nil {
				return nil, err
			}
			s.scheme.Decoder = core.NewDecoder(1, true, func(*view.View) bool { return true })
			return s, nil
		}},
		{"chaos-grid24", func(seed int64, workers int) (workload, error) {
			c, err := newChaos(seed)
			if err != nil {
				return nil, err
			}
			c.want.accepted--
			return c, nil
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := measure(config{workload: c.name, seed: 1, workers: 2}, c.build, time.Now(), io.Discard)
			if res.Correct || res.Attempted < 2 || res.Failed != res.Attempted {
				t.Errorf("perturbed pin: %d of %d jobs failed, correct=%v; want every job failed",
					res.Failed, res.Attempted, res.Correct)
			}
		})
	}

	// A one-character edit of a golden table fails the suite through the
	// whole command: fail_ratio 1 and a nonzero exit.
	t.Run("suite", func(t *testing.T) {
		golden, err := os.ReadFile("EXPERIMENTS.md")
		if err != nil {
			t.Fatal(err)
		}
		i := bytes.Index(golden, []byte("### E1 "))
		if i < 0 {
			t.Fatal("no E1 table in EXPERIMENTS.md")
		}
		golden[i+5] = '0'
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "EXPERIMENTS.md"), golden, 0o644); err != nil {
			t.Fatal(err)
		}
		chdir(t, dir)
		r, code := runLine(t, "--workload", "suite", "--seed", "1", "--seconds", "0")
		if code == 0 || r.Correct || r.Attempted < 2 || r.Failed != r.Attempted {
			t.Errorf("edited golden table: exit %d, result %+v; want every job failed and a nonzero exit", code, r)
		}
	})
}

// chdir changes the working directory for the rest of the test.
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	})
}

func instanceKeys(insts []core.Instance) []string {
	out := make([]string, len(insts))
	for i, inst := range insts {
		var b strings.Builder
		b.WriteString(inst.G.Key())
		for v := 0; v < inst.G.N(); v++ {
			for _, w := range inst.G.Neighbors(v) {
				fmt.Fprintf(&b, " %d", inst.Prt.MustPort(v, w))
			}
		}
		out[i] = b.String()
	}
	return out
}

// TestSeeds: the same seed gives the same inputs, seeds 1 and 2 differ,
// and the build pins hold at both.
func TestSeeds(t *testing.T) {
	inputsOf := func(seed int64) []string {
		b := newBuild(seed, 2)
		s, err := newSweep(seed, 2)
		if err != nil {
			t.Fatal(err)
		}
		c, err := newChaos(seed)
		if err != nil {
			t.Fatal(err)
		}
		u, err := newSuite(seed, 2)
		if err != nil {
			t.Fatal(err)
		}
		return []string{
			strings.Join(instanceKeys(b.slices[0].insts), ";") + strings.Join(instanceKeys(b.slices[1].insts), ";"),
			strings.Join(s.alphabet, ","),
			fmt.Sprintf("%+v", c.plan),
			strings.Join(u.order, ","),
		}
	}
	one, again, two := inputsOf(1), inputsOf(1), inputsOf(2)
	for i, what := range []string{"build instance order", "sweep alphabet order", "chaos plan", "suite order"} {
		if one[i] != again[i] {
			t.Errorf("%s differs between two set-ups at seed 1", what)
		}
		if one[i] == two[i] {
			t.Errorf("%s is the same at seeds 1 and 2", what)
		}
	}
	for _, seed := range []int64{1, 2} {
		if err := newBuild(seed, 2).job(nil); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// decodeTrace reads a trace file written by a traced pass.
func decodeTrace(t *testing.T, workload string) []span {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("bench", "out", workload+".trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if tr.Workload != workload || len(tr.Spans) == 0 {
		t.Fatalf("trace of %q holds %d spans", tr.Workload, len(tr.Spans))
	}
	return tr.Spans
}

// TestTraceIsHidingSafe runs the traced chaos pass and checks that no
// certificate the prover issued for the instance appears in the trace.
func TestTraceIsHidingSafe(t *testing.T) {
	chdir(t, t.TempDir())
	res := measure(config{workload: "chaos-grid24", seed: 1, seconds: 0.2, trace: true, workers: 2},
		func(seed int64, workers int) (workload, error) { return newChaos(seed) }, time.Now(), io.Discard)
	if !res.Correct {
		t.Fatalf("traced pass failed: %+v", res)
	}
	c, err := newChaos(1)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := c.scheme.Prover.Certify(c.inst)
	if err != nil {
		t.Fatal(err)
	}
	// Spans are decoded strictly, so the file holds names, ids, timestamps
	// and integer counts only; the strings among them are span names and
	// count keys.
	var strs []string
	for _, s := range decodeTrace(t, "chaos-grid24") {
		strs = append(strs, s.Name)
		for k := range s.Counts {
			strs = append(strs, k)
		}
	}
	raw, err := os.ReadFile(filepath.Join("bench", "out", "chaos-grid24.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range labels {
		for _, s := range strs {
			if s == l {
				t.Fatalf("certificate %q appears as a string in the trace", l)
			}
		}
		if bytes.Contains(raw, []byte(fmt.Sprintf("%q", l))) {
			t.Fatalf("certificate %q appears quoted in the trace file", l)
		}
	}
}

// TestBuildLayersAccountForWall checks, on every traced build of both
// slices, that the layer times add up to the build's wall time and that
// the enumerator wrapper saw every labeled instance.
func TestBuildLayersAccountForWall(t *testing.T) {
	chdir(t, t.TempDir())
	res := measure(config{workload: "build-vdn4", seed: 1, seconds: 1, trace: true, workers: 2},
		func(seed int64, workers int) (workload, error) { return newBuild(seed, workers), nil }, time.Now(), io.Discard)
	if !res.Correct {
		t.Fatalf("traced pass failed: %+v", res)
	}
	spans := decodeTrace(t, "build-vdn4")
	instances := map[int64]int64{}
	for _, s := range spans {
		if s.Name == "nbhd.shard" {
			instances[s.Parent] += s.Counts["instances"]
		}
	}
	want := map[string]int64{"nbhd.build.k2": 18832, "nbhd.build.k3": 17900}
	builds := 0
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, "nbhd.build.k") {
			continue
		}
		builds++
		c := s.Counts
		wall := float64(s.End - s.Start)
		accounted := float64(c["startup_ns"] + c["assemble_ns"] +
			(c["enumerate_self_ns"]+c["absorb_ns"]+c["decide_ns"]+c["idle_ns"])/c["workers"])
		if math.Abs(accounted-wall) > 0.1*wall {
			t.Errorf("%s job %d: layers account for %.0f ns of %.0f ns", s.Name, s.Job, accounted, wall)
		}
		if instances[s.ID] != want[s.Name] {
			t.Errorf("%s job %d: shards saw %d instances, want %d", s.Name, s.Job, instances[s.ID], want[s.Name])
		}
	}
	if builds < 2 {
		t.Errorf("%d traced builds, want at least one per slice", builds)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 2}, [3]float64{1.4375, 2.75, 7.625}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name         string
		b            []float64
		higherBetter bool
		want         string
	}{
		{"same", []float64{100, 100, 101, 99, 100}, false, "within bound"},
		{"slower", []float64{120, 121, 119, 120, 120}, false, "regressed"},
		{"faster", []float64{80, 81, 79, 80, 80}, false, "improved"},
		{"fewer per second", []float64{80, 81, 79, 80, 80}, true, "regressed"},
		{"noisy", []float64{60, 140, 100, 70, 130}, false, "unresolved"},
	} {
		if got := verdict(steady, c.b, c.higherBetter, 0.1); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestCompareExitsNonzeroOnRegression writes two small result sets and
// compares them both ways.
func TestCompareExitsNonzeroOnRegression(t *testing.T) {
	dir := t.TempDir()
	write := func(set string, p50 float64) {
		metrics := map[string]value{}
		for _, m := range endToEnd {
			metrics[m.name] = value{100, m.unit}
		}
		metrics["job_ms_p50"] = value{p50, "ms"}
		r := record{Workload: "build-vdn4", Seed: 1, Result: result{Correct: true, Attempted: 2, Metrics: metrics}}
		if err := r.save(filepath.Join(dir, set)); err != nil {
			t.Fatal(err)
		}
	}
	for _, p50 := range []float64{50, 50.5, 49.5} {
		write("fast", p50)
		write("slow", 2*p50)
	}
	var out bytes.Buffer
	if code := compareMain([]string{filepath.Join(dir, "fast"), filepath.Join(dir, "slow")}, &out, io.Discard); code == 0 {
		t.Errorf("fast -> slow exited 0:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "regressed") {
		t.Errorf("no regression reported:\n%s", out.String())
	}
	out.Reset()
	if code := compareMain([]string{filepath.Join(dir, "slow"), filepath.Join(dir, "fast")}, &out, io.Discard); code != 0 {
		t.Errorf("slow -> fast exited %d:\n%s", code, out.String())
	}
}
