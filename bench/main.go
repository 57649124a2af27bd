// Command bench is the repository benchmark: four seeded closed-loop
// workloads that drive the public entry points of nbhd, core, sim and
// engine, check every job's output, and print end-to-end metrics (untraced
// runs) or per-layer metrics measured from outside the layers (traced
// runs). README.md describes the workloads and metrics.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh --workload build-vdn4 --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload all --seed 1 --save bench/results/x
//	bash bench/run.sh compare bench/results/a bench/results/b
//
// Each workload runs in fresh child processes of this program, one at a
// time: one child measures, and further set-up-only children give setup_s
// its median. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics; the exit code is 1 when any
// check failed.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// processStart is taken during package initialisation, so that a child's
// setup_s includes everything from the start of main.
var processStart = time.Now()

// setupSamples is how many children measure set-up per run; setup_s is
// their median.
const setupSamples = 9

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "child":
			return childMain(args[1:], stdout, stderr)
		case "compare":
			return compareMain(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	secs := fs.Float64("seconds", 20, "how long one run measures")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	save := fs.String("save", "", "directory to store each run's record in, for compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: --trace must be 0 or 1")
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = names[:0]
		for _, s := range specs {
			names = append(names, s.name)
		}
	} else if _, err := specByName(*name); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}

	code := 0
	var rows []record
	for _, n := range names {
		rec, err := runWorkload(n, *seed, *secs, *trace == 1, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", n, err)
			return 1
		}
		if !rec.Result.Correct {
			code = 1
		}
		if *save != "" {
			if err := rec.save(*save); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
		}
		rows = append(rows, rec)
	}
	if len(rows) == 1 {
		// The contract's result line: the last line of standard output.
		line, err := json.Marshal(rows[0].Result)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	} else {
		printTable(stdout, rows)
	}
	return code
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints for one workload run.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is one stored workload run: the result line plus what compare
// and a reader of the baseline need to know about it.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Env      env     `json:"env"`
	Tail     string  `json:"tail"`
	Result   result  `json:"result"`
}

// runWorkload measures one workload in child processes: the measuring
// child, then, on an untraced run, set-up-only children for setup_s.
func runWorkload(name string, seed int64, secs float64, trace bool, stderr io.Writer) (record, error) {
	meas, err := spawn(name, seed, secs, trace, false, stderr)
	if err != nil {
		return record{}, err
	}
	rec := record{Workload: name, Seed: seed, Seconds: secs, Trace: trace, Env: meas.Env, Tail: meas.Tail,
		Result: result{Correct: meas.Correct, Attempted: meas.Attempted, Failed: meas.Failed, Metrics: map[string]value{}}}
	if meas.Metrics == nil {
		meas.Metrics = map[string]float64{}
	}
	list := perLayer
	if !trace {
		list = endToEnd
		setups := []float64{meas.Setup}
		for len(setups) < setupSamples {
			c, err := spawn(name, seed, secs, false, true, stderr)
			if err != nil {
				return record{}, err
			}
			setups = append(setups, c.Setup)
			rec.Result.Attempted += c.Attempted
			rec.Result.Failed += c.Failed
			rec.Result.Correct = rec.Result.Correct && c.Correct
		}
		sort.Float64s(setups)
		meas.Metrics["setup_s"] = setups[len(setups)/2]
	}
	for _, m := range list {
		v, ok := meas.Metrics[m.name]
		if !ok && rec.Result.Correct {
			return record{}, fmt.Errorf("child reported no %s", m.name)
		}
		rec.Result.Metrics[m.name] = value{v, m.unit}
	}
	fmt.Fprintf(stderr, "bench: %s seed=%d cpu=%q num_cpu=%d gomaxprocs=%d %s tail %s\n",
		name, seed, meas.Env.CPU, meas.Env.NumCPU, meas.Env.GOMAXPROCS, meas.Env.Go, meas.Tail)
	return rec, nil
}

// spawn runs this program as a child for one measurement and decodes the
// result it prints. The child's standard error passes through.
func spawn(name string, seed int64, secs float64, trace, setupOnly bool, stderr io.Writer) (childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	args := []string{"child", "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(secs, 'g', -1, 64), "--trace=" + strconv.FormatBool(trace),
		"--setup-only=" + strconv.FormatBool(setupOnly)}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	runErr := cmd.Run()
	var res childResult
	if err := json.Unmarshal(lastLine(out.Bytes()), &res); err != nil {
		return childResult{}, fmt.Errorf("child %v: %v (result: %v)", args, runErr, err)
	}
	return res, nil
}

func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

// childMain is one child process: it measures and prints a childResult.
func childMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench child", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds")
	fs.BoolVar(&cfg.trace, "trace", false, "traced pass")
	fs.BoolVar(&cfg.setupOnly, "setup-only", false, "stop after set-up")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := specByName(cfg.workload)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	// One closed-loop client; the pipelines get one worker per CPU.
	cfg.workers = runtime.NumCPU()
	runtime.GOMAXPROCS(cfg.workers)
	res := measure(cfg, sp.new, processStart, stderr)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// save stores the record as <dir>/<workload>-seed<seed>[-trace]-<n>.json
// with the first unused n.
func (r record) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	stem := fmt.Sprintf("%s-seed%d", r.Workload, r.Seed)
	if r.Trace {
		stem += "-trace"
	}
	for n := 1; ; n++ {
		path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", stem, n))
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if errors.Is(err, os.ErrExist) {
			continue
		}
		if err != nil {
			return err
		}
		if _, err := f.Write(append(data, '\n')); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
}

// printTable prints every workload's metrics, plus fail_ratio, one per
// line with its unit.
func printTable(w io.Writer, rows []record) {
	for _, r := range rows {
		names := make([]string, 0, len(r.Result.Metrics))
		for n := range r.Result.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			v := r.Result.Metrics[n]
			fmt.Fprintf(w, "%-14s %-32s %14.6g %s\n", r.Workload, n, v.Value, v.Unit)
		}
		fmt.Fprintf(w, "%-14s %-32s %14.6g %s\n", r.Workload, "fail_ratio",
			float64(r.Result.Failed)/float64(max(r.Result.Attempted, 1)), "ratio")
	}
}

// cpuModel returns the processor model named in /proc/cpuinfo, or "".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
