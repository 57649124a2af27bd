package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"hidinglcp/internal/core"
	"hidinglcp/internal/decoders"
	"hidinglcp/internal/engine"
	"hidinglcp/internal/experiments"
	"hidinglcp/internal/faults"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/nbhd"
	"hidinglcp/internal/obs"
	"hidinglcp/internal/sim"
	"hidinglcp/internal/view"
)

// workload is one closed-loop job the benchmark repeats: the next job
// starts when the previous one returns. Inputs come only from the seed.
type workload interface {
	// inputs reports what set-up produced.
	inputs() inputs
	// job runs one job and checks its output; p is nil on untraced jobs.
	job(p *probe) error
	// replay re-times, after a traced job, layers the job itself only
	// reaches through the pipeline (e.g. canonical keys).
	replay(p *probe)
	// finish runs the checks that need to run once, after timing.
	finish() error
}

// inputs describes a workload's generated inputs.
type inputs struct {
	units    int64         // work units per job (README.md names the unit)
	generate time.Duration // time spent generating graphs
}

// spec names a workload and builds it from the seed. BENCHMARK.json and
// README.md say why the benchmark has each one.
type spec struct {
	name string
	new  func(seed int64, workers int) (workload, error)
}

var specs = []spec{
	{"build-vdn4", func(seed int64, workers int) (workload, error) { return newBuild(seed, workers), nil }},
	{"sweep-n10", func(seed int64, workers int) (workload, error) { return newSweep(seed, workers) }},
	{"chaos-grid24", func(seed int64, workers int) (workload, error) { return newChaos(seed) }},
	{"suite", func(seed int64, workers int) (workload, error) { return newSuite(seed, workers) }},
}

func specByName(name string) (spec, error) {
	names := make([]string, len(specs))
	for i, s := range specs {
		if s.name == name {
			return s, nil
		}
		names[i] = s.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// ---- build-vdn4 ----

// slice is one V(D,4) slice build with the counts it must produce. The
// counts do not depend on instance order, so they hold at every seed.
type slice struct {
	k        int
	dec      core.Decoder
	insts    []core.Instance
	alphabet []string

	views, edges, loops int
	oddCycle            bool // V(D,4) has an odd cycle (the hiding witness)
	colorable           bool // V(D,4) is k-colorable

	// traced is the graph of the latest traced build, whose views the
	// view-layer replay keys.
	traced *nbhd.NGraph
}

type buildWorkload struct {
	in      inputs
	workers int
	slices  []*slice
}

func newBuild(seed int64, workers int) *buildWorkload {
	rng := rand.New(rand.NewSource(seed))
	start := time.Now()
	k2 := decoders.DegOneFamily(4)
	// The E15 slice for k = 3: every connected graph on at most 4 nodes
	// with a leaf, default ports.
	var k3 []core.Instance
	for n := 2; n <= 4; n++ {
		graph.EnumConnectedGraphs(n, func(g *graph.Graph) bool {
			if g.MinDegree() == 1 && g.IsKColorable(3) {
				gc := g.Clone()
				k3 = append(k3, core.Instance{G: gc, Prt: graph.DefaultPorts(gc), NBound: 4})
			}
			return true
		})
	}
	generate := time.Since(start)
	for _, insts := range [][]core.Instance{k2, k3} {
		rng.Shuffle(len(insts), func(i, j int) { insts[i], insts[j] = insts[j], insts[i] })
	}
	b := &buildWorkload{
		workers: workers,
		slices: []*slice{
			{k: 2, dec: decoders.DegreeOne().Decoder, insts: k2, alphabet: decoders.DegOneAlphabet(),
				views: 62, edges: 94, loops: 0, oddCycle: true, colorable: false},
			{k: 3, dec: decoders.DegreeOneK(3).Decoder, insts: k3, alphabet: decoders.DegOneKAlphabet(3),
				views: 765, edges: 1639, loops: 0, oddCycle: true, colorable: true},
		},
	}
	var units int64
	for _, s := range b.slices {
		for _, inst := range s.insts {
			units += pow(len(s.alphabet), inst.G.N())
		}
	}
	b.in = inputs{units: units, generate: generate}
	return b
}

func pow(a, n int) int64 {
	out := int64(1)
	for i := 0; i < n; i++ {
		out *= int64(a)
	}
	return out
}

func (b *buildWorkload) inputs() inputs { return b.in }
func (b *buildWorkload) finish() error  { return nil }

func (b *buildWorkload) job(p *probe) error {
	for _, s := range b.slices {
		ng, err := b.build(s, p)
		if err != nil {
			return fmt.Errorf("k=%d build: %w", s.k, err)
		}
		var odd, colorable bool
		p.timed("graph.color", "graph.color.ms", func() {
			odd = ng.OddCycle() != nil
			colorable = ng.IsKColorable(s.k)
		})
		got := fmt.Sprintf("%d views, %d edges, %d loops, odd cycle %v, %d-colorable %v",
			ng.Size(), ng.EdgeCount(), ng.LoopCount(), odd, s.k, colorable)
		want := fmt.Sprintf("%d views, %d edges, %d loops, odd cycle %v, %d-colorable %v",
			s.views, s.edges, s.loops, s.oddCycle, s.k, s.colorable)
		if got != want {
			return fmt.Errorf("k=%d slice: got %s, want %s", s.k, got, want)
		}
	}
	return nil
}

// build runs one slice through nbhd.BuildShardedCtx. On a traced job it
// wraps the enumerator and the decoder, passes a live scope, and splits
// the build's wall time among the layers.
func (b *buildWorkload) build(s *slice, p *probe) (*nbhd.NGraph, error) {
	se := nbhd.ShardedAllLabelings(s.alphabet, s.insts...)
	if p == nil {
		// A nil context is the never-cancelled one, as in nbhdgraph
		// without -timeout.
		return nbhd.BuildShardedCtx(nil, obs.Scope{}, s.dec, se, 0, b.workers)
	}
	rec := &shardRecorder{se: se, tr: p.tr}
	dec := &timedDecoder{Decoder: s.dec}
	sc := obs.NewScope()
	id := p.tr.newID()
	start := p.tr.now()
	ng, err := nbhd.BuildShardedCtx(nil, sc, dec, rec, 0, b.workers)
	end := p.tr.now()
	if err != nil {
		return nil, err
	}
	s.traced = ng
	split := splitBuild(start, end, rec.shards, dec.ns.Load(), b.workers)
	for _, sh := range rec.shards {
		p.tr.add(span{ID: p.tr.newID(), Parent: id, Job: p.job, Name: "nbhd.shard", Start: sh.start, End: sh.end,
			Counts: map[string]int64{"absorb_ns": sh.absorb, "instances": sh.instances}})
	}
	p.tr.add(span{ID: id, Parent: p.root, Job: p.job, Name: fmt.Sprintf("nbhd.build.k%d", s.k), Start: start, End: end,
		Counts: map[string]int64{
			"workers": int64(b.workers), "startup_ns": split.startup, "assemble_ns": split.assemble,
			"enumerate_self_ns": split.enumSelf, "absorb_ns": split.absorb, "decide_ns": split.decide,
			"idle_ns": split.idle, "decide_calls": dec.calls.Load(),
		}})

	m := p.sums
	m[fmt.Sprintf("nbhd.build.k%d_ms", s.k)] += nsToMS(split.wall)
	m["nbhd.startup.ms"] += nsToMS(split.startup)
	m["nbhd.assemble.ms"] += nsToMS(split.assemble)
	m["nbhd.enumerate.self_ms"] += nsToMS(split.enumSelf)
	m["nbhd.absorb.ms"] += nsToMS(split.absorb)
	m["nbhd.workers.idle_ms"] += nsToMS(split.idle)
	m["core.decide.ms"] += nsToMS(split.decide)
	m["core.decide.calls"] += float64(dec.calls.Load())

	count := func(name string) float64 { return float64(sc.Counter(name).Value()) }
	gauge := func(name string) float64 { return float64(sc.Gauge(name).Value()) }
	for _, name := range []string{"nbhd.instances", "nbhd.views.extracted", "nbhd.views.template_memo_hits",
		"nbhd.intern.hits", "nbhd.intern.misses", "nbhd.shards.stolen"} {
		m[name] += count(name)
	}
	m["nbhd.views.accepting"] += gauge("nbhd.views.accepting")
	m["_nbhd.intern.classes"] += gauge("nbhd.intern.classes")
	m["_nbhd.views.lookups"] += count("nbhd.views.template_memo_hits") + count("nbhd.views.extracted")
	m["_nbhd.intern.lookups"] += count("nbhd.intern.hits") + count("nbhd.intern.misses")
	m["_core.decide.memo_hits"] += count("nbhd.decode.memo_hits")
	m["_core.decide.lookups"] += count("nbhd.decode.calls")
	return ng, nil
}

// replay times the view layer directly: a template for every (instance,
// node) pair of both slices, and both canonical keys of every accepting
// view. Keys are cached on a view, so each key is taken on a fresh clone.
func (b *buildWorkload) replay(p *probe) {
	var ex view.Extractor
	p.timed("view.template", "view.template.ms", func() {
		for _, s := range b.slices {
			for _, inst := range s.insts {
				for v := 0; v < inst.G.N(); v++ {
					if _, err := ex.Template(inst.G, inst.Prt, nil, inst.NBound, v, s.dec.Rounds()); err != nil {
						panic(fmt.Sprintf("template of a generated instance: %v", err))
					}
				}
			}
		}
	})
	var views []*view.View
	for _, s := range b.slices {
		for i := 0; i < s.traced.Size(); i++ {
			views = append(views, s.traced.ViewAt(i))
		}
	}
	for _, k := range []struct {
		name, metric string
		key          func(*view.View)
	}{
		{"view.key", "view.key.ms", func(v *view.View) { v.Key() }},
		{"view.binkey", "view.binkey.ms", func(v *view.View) { v.BinKey() }},
	} {
		clones := make([]*view.View, len(views))
		for i, v := range views {
			clones[i] = v.Clone()
		}
		p.timed(k.name, k.metric, func() {
			for _, v := range clones {
				k.key(v)
			}
		})
	}
}

// ---- sweep-n10 ----

type sweepWorkload struct {
	in       inputs
	workers  int
	inst     core.Instance
	scheme   core.Scheme
	alphabet []string
}

func newSweep(seed int64, workers int) (*sweepWorkload, error) {
	start := time.Now()
	g, err := sweepGraph()
	if err != nil {
		return nil, err
	}
	generate := time.Since(start)
	alphabet := decoders.DegOneAlphabet()
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(alphabet), func(i, j int) { alphabet[i], alphabet[j] = alphabet[j], alphabet[i] })
	return &sweepWorkload{
		in:       inputs{units: pow(len(alphabet), g.N()), generate: generate},
		workers:  workers,
		inst:     core.NewAnonymousInstance(g),
		scheme:   decoders.DegreeOne(),
		alphabet: alphabet,
	}, nil
}

// sweepGraph is the sweep's instance: a 5-cycle with a chord closing the
// odd triangle 0-1-2, and a tree hung from node 0 that ends in three
// leaves; connected, not bipartite, degrees 4,3,3,3,2,2,2,1,1,1.
//
// The graph is fixed and the seed only orders the alphabet, and with it
// the order in which labelings are enumerated. A job's allocation and time
// follow from the graph's structure and numbering (memo sizes, distinct
// accepting sets, which nodes the shard prefix fixes): with graphs drawn
// from the seed they varied by more than 10% between seeds.
func sweepGraph() (*graph.Graph, error) {
	return graph.FromEdges(10, [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 2},
		{0, 5}, {5, 6}, {5, 7}, {6, 8}, {6, 9},
	})
}

func (s *sweepWorkload) inputs() inputs { return s.in }
func (s *sweepWorkload) replay(*probe)  {}

func (s *sweepWorkload) job(p *probe) error {
	dec, lang, sc := s.scheme.Decoder, s.scheme.Promise.Lang, obs.Scope{}
	var td *timedDecoder
	var tl langTimer
	if p != nil {
		td = &timedDecoder{Decoder: dec}
		dec, lang, sc = td, tl.wrap(lang), obs.NewScope()
	}
	var err error
	wall := p.timed("core.sweep", "core.sweep.ms", func() {
		err = core.ExhaustiveStrongSoundnessParallelCtx(nil, sc, dec, lang, s.inst, s.alphabet, 0, s.workers)
	})
	if err != nil {
		return fmt.Errorf("degree-one is strongly sound (Lemma 4.1), yet the sweep returned: %w", err)
	}
	if p == nil {
		return nil
	}
	m := p.sums
	count := func(name string) float64 { return float64(sc.Counter(name).Value()) }
	m["core.decide.ms"] += nsToMS(td.ns.Load())
	m["core.decide.calls"] += float64(td.calls.Load())
	m["core.lang.ms"] += nsToMS(tl.ns.Load())
	m["core.lang.calls"] += float64(tl.calls.Load())
	m["core.sweep.residual_ms"] += nsToMS(wall - (td.ns.Load()+tl.ns.Load())/int64(s.workers))
	m["core.sweep.labelings.checked"] += count("core.sweep.labelings.checked")
	m["core.sweep.shards.done"] += count("core.sweep.shards.done")
	m["_core.decide.memo_hits"] += count("core.sweep.decide.memo_hits")
	m["_core.decide.lookups"] += count("core.sweep.decide.calls")
	m["_core.lang.memo_hits"] += count("core.sweep.lang.memo_hits")
	m["_core.lang.lookups"] += count("core.sweep.lang.memo_hits") + count("core.sweep.lang.evals")
	return nil
}

// finish is the negative control: on the same non-bipartite instance an
// accept-all decoder must be caught, or the sweep's nil result above would
// prove nothing.
func (s *sweepWorkload) finish() error {
	acceptAll := core.NewDecoder(1, true, func(*view.View) bool { return true })
	err := core.ExhaustiveStrongSoundnessParallelCtx(nil, obs.Scope{}, acceptAll, s.scheme.Promise.Lang, s.inst, s.alphabet, 0, s.workers)
	var v *core.StrongSoundnessViolation
	if !errors.As(err, &v) {
		return fmt.Errorf("negative control: accept-all decoder not caught (got %v)", err)
	}
	return nil
}

// ---- chaos-grid24 ----

// chaosOutcome is everything a chaos run reports; equal plans must replay
// it exactly.
type chaosOutcome struct {
	accepted, rejected, crashed int
	stats                       sim.Stats
	summary                     string
}

type chaosWorkload struct {
	in     inputs
	inst   core.Instance
	scheme core.Scheme
	plan   faults.Plan
	// want is the outcome every job must replay: the pinned one at seed 1,
	// else the first job's.
	want *chaosOutcome
}

func newChaos(seed int64) (*chaosWorkload, error) {
	start := time.Now()
	g, err := graph.AttachPendant(graph.Grid(24, 24), 0)
	if err != nil {
		return nil, err
	}
	generate := time.Since(start)
	c := &chaosWorkload{
		in:     inputs{units: int64(g.N()), generate: generate},
		inst:   core.NewAnonymousInstance(g),
		scheme: decoders.DegreeOne(),
		plan:   faults.Plan{Seed: seed, Drop: 0.05, Duplicate: 0.1, Delay: 0.2, MaxDelay: 2, Reorder: true},
	}
	if seed == 1 {
		c.want = &chaosOutcome{accepted: 576, rejected: 1, crashed: 0,
			stats:   sim.Stats{Rounds: 1, Messages: 1881, Records: 1881},
			summary: "dropped=107 duplicated=214 delayed=0 expired=436 timeouts=468 crashed=[] corrupted=[]"}
	}
	return c, nil
}

func (c *chaosWorkload) inputs() inputs { return c.in }
func (c *chaosWorkload) replay(*probe)  {}
func (c *chaosWorkload) finish() error  { return nil }

func (c *chaosWorkload) job(p *probe) error {
	s, sc := c.scheme, obs.Scope{}
	var td *timedDecoder
	var tp *timedProver
	if p != nil {
		td, tp = &timedDecoder{Decoder: s.Decoder}, &timedProver{Prover: s.Prover}
		s.Decoder, s.Prover, sc = td, tp, obs.NewScope()
	}
	var fr *sim.FaultReport
	var err error
	wall := p.timed("sim.run", "sim.run_ms", func() {
		fr, err = sim.RunSchemeFaultsCtx(nil, sc, s, c.inst, c.plan)
	})
	if err != nil {
		return err
	}
	var got chaosOutcome
	got.accepted, got.rejected, got.crashed = fr.Counts()
	got.stats, got.summary = fr.Stats, fr.Faults.Summary()
	if n := got.accepted + got.rejected + got.crashed; n != c.inst.G.N() {
		return fmt.Errorf("%d verdicts for %d nodes", n, c.inst.G.N())
	}
	if c.want == nil {
		c.want = &got
	} else if got != *c.want {
		return fmt.Errorf("run does not replay: got %+v, want %+v", got, *c.want)
	}
	if p == nil {
		return nil
	}
	m := p.sums
	m["core.decide.ms"] += nsToMS(td.ns.Load())
	m["core.decide.calls"] += float64(td.calls.Load())
	m["decoders.certify.ms"] += nsToMS(tp.ns.Load())
	m["sim.gather.self_ms"] += nsToMS(wall - td.ns.Load() - tp.ns.Load())
	m["sim.rounds"] += float64(fr.Stats.Rounds)
	m["sim.messages"] += float64(fr.Stats.Messages)
	m["sim.records"] += float64(fr.Stats.Records)
	m["_sim.sends"] += float64(fr.Stats.Rounds * 2 * c.inst.G.M())
	m["faults.dropped"] += float64(fr.Faults.Dropped)
	m["faults.duplicated"] += float64(fr.Faults.Duplicated)
	m["faults.delayed"] += float64(fr.Faults.Delayed)
	m["faults.expired"] += float64(fr.Faults.Expired)
	m["faults.timeouts"] += float64(fr.Faults.Timeouts)
	return nil
}

// ---- suite ----

type suiteWorkload struct {
	in     inputs
	reg    *engine.Registry
	order  []string
	golden string
}

func newSuite(seed int64, workers int) (*suiteWorkload, error) {
	golden, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		return nil, fmt.Errorf("reading the golden tables (run from the repository root): %w", err)
	}
	experiments.SetParallelism(0, workers)
	reg := engine.Default()
	var ids []string
	for _, r := range reg.Experiments() {
		ids = append(ids, r.ID)
	}
	rng := rand.New(rand.NewSource(seed))
	order := make([]string, len(ids))
	for i, j := range rng.Perm(len(ids)) {
		order[i] = ids[j]
	}
	return &suiteWorkload{
		in:     inputs{units: int64(len(order))},
		reg:    reg,
		order:  order,
		golden: string(golden),
	}, nil
}

func (s *suiteWorkload) inputs() inputs { return s.in }
func (s *suiteWorkload) replay(*probe)  {}
func (s *suiteWorkload) finish() error  { return nil }

func (s *suiteWorkload) job(p *probe) error {
	var runner engine.Runner
	if p != nil {
		sc := obs.NewScope()
		runner.Scope = sc
		experiments.SetScope(sc)
		defer experiments.SetScope(obs.Scope{})
	}
	for _, id := range s.order {
		var table experiments.Table
		job := s.reg.ExperimentsJob(engine.ExperimentsConfig{Only: id, Emit: func(t experiments.Table) { table = t }})
		var err error
		// A nil context is the never-cancelled one, as in cmd/experiments
		// without -timeout.
		p.timed("experiment."+id, "experiments."+id+".ms", func() { err = runner.Run(nil, job) })
		if err != nil {
			return err
		}
		if !strings.Contains(s.golden, strings.TrimSpace(table.Render())) {
			return fmt.Errorf("%s: rendered table not found in EXPERIMENTS.md", id)
		}
	}
	return nil
}
