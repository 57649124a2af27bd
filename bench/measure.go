package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// config is one workload run inside a child process.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	setupOnly bool
	workers   int
}

// childResult is what a child process reports to the parent.
type childResult struct {
	Setup     float64            `json:"setup_s"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
	Metrics   map[string]float64 `json:"metrics,omitempty"`
	Tail      string             `json:"tail,omitempty"`
	Env       env                `json:"env"`
}

// env records where a run measured.
type env struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

// maxErrorsShown caps the job errors a run prints to stderr.
const maxErrorsShown = 3

// measure sets up the workload with build, runs one cold job, and then
// runs jobs in a closed loop for cfg.seconds (at least one). start is when
// the process began, so setup_s covers input generation, registry and the
// cold job.
func measure(cfg config, build func(seed int64, workers int) (workload, error), start time.Time, stderr io.Writer) childResult {
	res := childResult{Env: env{CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}}
	fail := func(err error) {
		res.Failed++
		if res.Failed <= maxErrorsShown {
			fmt.Fprintf(stderr, "bench: %s: %v\n", cfg.workload, err)
		}
	}
	res.Attempted++
	w, err := build(cfg.seed, cfg.workers)
	if err != nil {
		fail(err)
		return res
	}
	if err := w.job(nil); err != nil {
		fail(err)
	}
	res.Setup = time.Since(start).Seconds()
	if !cfg.setupOnly {
		if cfg.trace {
			res.Metrics, res.Tail = tracedPass(cfg, w, &res, fail)
		} else {
			res.Metrics, res.Tail = timedPass(cfg, w, &res, fail)
		}
		if err := w.finish(); err != nil {
			fail(err)
		}
	}
	res.Correct = res.Failed == 0
	return res
}

// loop runs jobs until the given duration has passed, at least one, and
// returns each job's wall time.
func loop(d time.Duration, job func() error, res *childResult, fail func(error)) (durs []time.Duration, wall time.Duration) {
	start := time.Now()
	for {
		s := time.Now()
		err := job()
		durs = append(durs, time.Since(s))
		res.Attempted++
		if err != nil {
			fail(err)
		}
		if wall = time.Since(start); wall >= d {
			return durs, wall
		}
	}
}

// timedPass is the untraced measurement behind the end-to-end metrics.
func timedPass(cfg config, w workload, res *childResult, fail func(error)) (map[string]float64, string) {
	before := readUsage()
	durs, wall := loop(seconds(cfg.seconds), func() error { return w.job(nil) }, res, fail)
	after := readUsage()
	jobs := float64(len(durs))
	tail, tailName := tailLatency(durs)
	return map[string]float64{
		"work_per_s":       float64(w.inputs().units) * jobs / wall.Seconds(),
		"job_ms_p50":       durMS(percentile(durs, 0.5)),
		"cpu_ms_per_job":   durMS(after.cpu-before.cpu) / jobs,
		"alloc_mb_per_job": float64(after.allocBytes-before.allocBytes) / 1e6 / jobs,
		"peak_rss_mb":      float64(after.maxRSS) / 1e6,
	}, fmt.Sprintf("%s=%.3fms over %d jobs", tailName, durMS(tail), len(durs))
}

// tracedPass runs half its time untraced, for the runtime metrics, the
// tail latency and the base of the tracing overhead, and half traced, for
// the per-layer metrics. The spans go to bench/out/<workload>.trace.json.
func tracedPass(cfg config, w workload, res *childResult, fail func(error)) (map[string]float64, string) {
	half := seconds(cfg.seconds / 2)
	before := readUsage()
	plain, plainWall := loop(half, func() error { return w.job(nil) }, res, fail)
	after := readUsage()

	tr := newTracer()
	sums := map[string]float64{}
	var jobID int64
	traced, _ := loop(half, func() error {
		jobID++
		p := &probe{tr: tr, job: jobID, root: tr.newID(), sums: sums}
		start := tr.now()
		err := w.job(p)
		tr.add(span{ID: p.root, Job: jobID, Name: "job", Start: start, End: tr.now()})
		w.replay(p)
		return err
	}, res, fail)
	if err := tr.write(cfg.workload); err != nil {
		fail(fmt.Errorf("writing the trace: %w", err))
	}

	out := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = sums[m.name] / float64(len(traced))
	}
	for name, q := range ratioOf {
		out[name] = 0
		if d := sums[q[1]]; d != 0 {
			out[name] = sums[q[0]] / d
		}
	}
	jobs := float64(len(plain))
	tail, tailName := tailLatency(plain)
	out["graph.enum.ms"] = durMS(w.inputs().generate)
	out["runtime.gc.cycles_per_job"] = float64(after.gcCycles-before.gcCycles) / jobs
	out["runtime.gc.pause_ms_per_job"] = durMS(after.gcPause-before.gcPause) / jobs
	out["runtime.heap.objects_per_job"] = float64(after.allocObjects-before.allocObjects) / jobs
	out["runtime.cpu_util"] = (after.cpu - before.cpu).Seconds() / (plainWall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	out["runtime.sched.latency_p90_us"] = histQuantile(before.sched, after.sched, 0.9) * 1e6
	out["latency.job_ms_tail"] = durMS(tail)
	out["trace.overhead_ratio"] = durMS(percentile(traced, 0.5)) / durMS(percentile(plain, 0.5))
	return out, fmt.Sprintf("%s=%.3fms over %d untraced jobs", tailName, durMS(tail), len(plain))
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
func durMS(d time.Duration) float64   { return float64(d) / 1e6 }

// percentile returns the q-quantile of durs by the nearest-rank method.
func percentile(durs []time.Duration, q float64) time.Duration {
	s := append([]time.Duration(nil), durs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// tailLatency returns the highest of p99, p90, p75 and p50 that has at
// least ten samples beyond it, or the maximum when none has, named.
func tailLatency(durs []time.Duration) (time.Duration, string) {
	for _, p := range []struct {
		q    float64
		name string
	}{{0.99, "p99"}, {0.90, "p90"}, {0.75, "p75"}, {0.50, "p50"}} {
		if float64(len(durs))*(1-p.q) >= 10 {
			return percentile(durs, p.q), p.name
		}
	}
	return percentile(durs, 1), "max"
}

// usage is a snapshot of the process's resource counters.
type usage struct {
	cpu          time.Duration // user + system
	maxRSS       int64         // bytes
	allocBytes   uint64
	allocObjects uint64
	gcCycles     uint64
	gcPause      time.Duration
	sched        *metrics.Float64Histogram
}

func readUsage() usage {
	var u usage
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		u.maxRSS = int64(ru.Maxrss) * 1024 // kilobytes on Linux
	}
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(samples)
	u.allocBytes = samples[0].Value.Uint64()
	u.allocObjects = samples[1].Value.Uint64()
	u.gcCycles = samples[2].Value.Uint64()
	u.sched = samples[3].Value.Float64Histogram()
	var gc debug.GCStats
	debug.ReadGCStats(&gc)
	u.gcPause = gc.PauseTotal
	return u
}

// histQuantile returns the upper bound of the bucket holding the
// q-quantile of the samples added between two reads of a histogram.
func histQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	delta := make([]uint64, len(after.Counts))
	var total uint64
	for i := range delta {
		delta[i] = after.Counts[i] - before.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range delta {
		if seen += c; seen >= want {
			if hi := after.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return after.Buckets[i]
		}
	}
	return after.Buckets[len(after.Buckets)-1]
}
