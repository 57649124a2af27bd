package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hidinglcp/internal/core"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/nbhd"
	"hidinglcp/internal/view"
)

// tracer keeps the spans of a traced pass in memory and writes them to one
// JSON file when the pass ends. A span carries only a name, ids, timestamps
// and integer counts: no view, label or certificate reaches it, which keeps
// the trace file inside the hiding contract.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

// span is one timed interval. Start and End are nanoseconds since the
// tracer was created; Parent is 0 for a job's root span.
type span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent"`
	Job    int64            `json:"job"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64   { return int64(time.Since(t.t0)) }
func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write stores the spans as bench/out/<workload>.trace.json.
func (t *tracer) write(workload string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return err
	}
	path := filepath.Join("bench", "out", workload+".trace.json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// probe is the handle of one traced job: it records the job's spans and
// adds each layer's share to the pass's per-layer sums. A nil probe marks
// an untraced job, on which timed only runs the work.
type probe struct {
	tr   *tracer
	job  int64
	root int64
	sums map[string]float64
}

// timed runs f as a span named name under the job's root span, adds its
// duration in ms to the layer metric, and returns the duration in ns.
func (p *probe) timed(name, metric string, f func()) int64 {
	if p == nil {
		f()
		return 0
	}
	id := p.tr.newID()
	start := p.tr.now()
	f()
	end := p.tr.now()
	p.tr.add(span{ID: id, Parent: p.root, Job: p.job, Name: name, Start: start, End: end})
	p.sums[metric] += nsToMS(end - start)
	return end - start
}

func nsToMS(ns int64) float64 { return float64(ns) / 1e6 }

// timedDecoder times the Decide calls of the decoder it wraps. The
// pipelines call it from their worker goroutines, so the tallies are
// atomic.
type timedDecoder struct {
	core.Decoder
	ns, calls atomic.Int64
}

func (d *timedDecoder) Decide(mu *view.View) bool {
	//lint:ignore obspurity timing wrapper: the verdict is delegated unchanged and the clock only feeds the trace
	start := time.Now()
	out := d.Decoder.Decide(mu)
	//lint:ignore obspurity timing wrapper: the verdict is delegated unchanged and the clock only feeds the trace
	d.ns.Add(int64(time.Since(start)))
	d.calls.Add(1)
	return out
}

// timedProver times the Certify calls of the prover it wraps.
type timedProver struct {
	core.Prover
	ns atomic.Int64
}

func (p *timedProver) Certify(inst core.Instance) ([]string, error) {
	start := time.Now()
	labels, err := p.Prover.Certify(inst)
	p.ns.Add(int64(time.Since(start)))
	return labels, err
}

// langTimer times the membership tests of a language.
type langTimer struct {
	ns, calls atomic.Int64
}

// wrap returns lang with its Contains test timed by t.
func (t *langTimer) wrap(lang core.Language) core.Language {
	contains := lang.Contains
	lang.Contains = func(g *graph.Graph) bool {
		start := time.Now()
		out := contains(g)
		t.ns.Add(int64(time.Since(start)))
		t.calls.Add(1)
		return out
	}
	return lang
}

// shardRecorder wraps the sharded enumerator handed to a build, so that
// each shard the build drives is timed from outside: its start and end,
// and the time spent inside yield, which is the builder's absorb step.
type shardRecorder struct {
	se     nbhd.ShardedEnumerator
	tr     *tracer
	mu     sync.Mutex
	shards []shardSample
}

// shardSample is one driven shard, in tracer nanoseconds; absorb is the
// time spent inside yield.
type shardSample struct {
	start, end, absorb, instances int64
}

func (r *shardRecorder) Sequential() nbhd.Enumerator { return r.wrap(r.se.Sequential()) }

func (r *shardRecorder) Shards(k int) []nbhd.Enumerator {
	inner := r.se.Shards(k)
	out := make([]nbhd.Enumerator, len(inner))
	for i, e := range inner {
		out[i] = r.wrap(e)
	}
	return out
}

func (r *shardRecorder) wrap(e nbhd.Enumerator) nbhd.Enumerator {
	return func(yield func(core.Labeled) bool) error {
		s := shardSample{start: r.tr.now()}
		err := e(func(l core.Labeled) bool {
			start := time.Now()
			ok := yield(l)
			s.absorb += int64(time.Since(start))
			s.instances++
			return ok
		})
		s.end = r.tr.now()
		r.mu.Lock()
		r.shards = append(r.shards, s)
		r.mu.Unlock()
		return err
	}
}

// buildSplit divides one build's wall time, in ns, among its layers. The
// serial parts are startup (call to first shard start) and assemble (last
// shard end to return); between them the workers share the shard window,
// each busy enumerating, absorbing or deciding, or idle.
type buildSplit struct {
	wall, startup, assemble, enumSelf, absorb, decide, idle int64
}

func splitBuild(start, end int64, shards []shardSample, decide int64, workers int) buildSplit {
	b := buildSplit{wall: end - start, decide: decide}
	first, last := shards[0].start, shards[0].end
	var busy, inYield int64
	for _, s := range shards {
		first = min(first, s.start)
		last = max(last, s.end)
		busy += s.end - s.start
		inYield += s.absorb
	}
	b.startup = first - start
	b.assemble = end - last
	b.enumSelf = busy - inYield
	b.absorb = inYield - decide
	b.idle = int64(workers)*(last-first) - busy
	return b
}
