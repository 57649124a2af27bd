package hidinglcp_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"hidinglcp/internal/core"
	"hidinglcp/internal/decoders"
	"hidinglcp/internal/experiments"
	"hidinglcp/internal/faults"
	"hidinglcp/internal/forgetful"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/nbhd"
	"hidinglcp/internal/obs"
	"hidinglcp/internal/sim"
	"hidinglcp/internal/view"
)

// benchExperiment times one full experiment run (and fails the bench on an
// experiment error, so the benchmark suite doubles as a reproduction
// check). The nil context is the never-cancelled context, so the timed
// path is the one the CLIs run when no -timeout is set.
func benchExperiment(b *testing.B, run func(context.Context) experiments.Table) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t := run(nil)
		if t.Err != nil {
			b.Fatal(t.Err)
		}
	}
}

func BenchmarkE1Forgetful(b *testing.B)      { benchExperiment(b, experiments.E1Forgetful) }
func BenchmarkE2Views(b *testing.B)          { benchExperiment(b, experiments.E2Views) }
func BenchmarkE3DegreeOne(b *testing.B)      { benchExperiment(b, experiments.E3DegreeOne) }
func BenchmarkE4EvenCycle(b *testing.B)      { benchExperiment(b, experiments.E4EvenCycle) }
func BenchmarkE5Union(b *testing.B)          { benchExperiment(b, experiments.E5Union) }
func BenchmarkE6Shatter(b *testing.B)        { benchExperiment(b, experiments.E6Shatter) }
func BenchmarkE7Watermelon(b *testing.B)     { benchExperiment(b, experiments.E7Watermelon) }
func BenchmarkE8Extraction(b *testing.B)     { benchExperiment(b, experiments.E8Extraction) }
func BenchmarkE9Realize(b *testing.B)        { benchExperiment(b, experiments.E9Realize) }
func BenchmarkE10Ramsey(b *testing.B)        { benchExperiment(b, experiments.E10Ramsey) }
func BenchmarkE11Impossibility(b *testing.B) { benchExperiment(b, experiments.E11Impossibility) }
func BenchmarkE12HiddenFraction(b *testing.B) {
	benchExperiment(b, experiments.E12HiddenFraction)
}
func BenchmarkE13Simulator(b *testing.B) { benchExperiment(b, experiments.E13Simulator) }
func BenchmarkE14Baseline(b *testing.B)  { benchExperiment(b, experiments.E14Baseline) }

// ---- Micro-benchmarks and ablations (DESIGN.md Section 4) ----

// BenchmarkViewExtract measures radius-r view extraction the way every
// checker loop runs it: through a reused Extractor, whose BFS scratch is
// shared across calls and whose templates share the label-independent view
// structure.
func BenchmarkViewExtract(b *testing.B) {
	g := graph.Grid(8, 8)
	pt := graph.DefaultPorts(g)
	ids := graph.SequentialIDs(g.N())
	labels := make([]string, g.N())
	ex := new(view.Extractor)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 1; r <= 2; r++ {
			if _, err := ex.Extract(g, pt, ids, labels, g.N(), (i+r)%g.N(), r); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkViewExtractOneShot measures the package-level one-shot Extract
// (fresh scratch every call) — the ablation baseline for the Extractor.
func BenchmarkViewExtractOneShot(b *testing.B) {
	g := graph.Grid(8, 8)
	pt := graph.DefaultPorts(g)
	ids := graph.SequentialIDs(g.N())
	labels := make([]string, g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 1; r <= 2; r++ {
			if _, err := view.Extract(g, pt, ids, labels, g.N(), (i+r)%g.N(), r); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkViewKey measures canonical-key construction on a radius-2 grid
// view, with identifiers and anonymously, each keyed fresh (Clone drops
// the key cache), and a cached read. Both fresh keys take the same port
// order; they differ only in the identifiers they serialize.
func BenchmarkViewKey(b *testing.B) {
	g := graph.Grid(5, 5)
	pt := graph.DefaultPorts(g)
	ids := graph.SequentialIDs(g.N())
	labels := make([]string, g.N())
	mu := view.MustExtract(g, pt, ids, labels, g.N(), 12, 2)
	anon := view.MustExtract(g, pt, nil, labels, g.N(), 12, 2)
	b.Run("with-ids", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = mu.Clone().BinKey()
		}
	})
	b.Run("anonymous", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = anon.Clone().BinKey()
		}
	})
	b.Run("cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = mu.Key()
		}
	})
}

// BenchmarkDecoders measures one full decoder pass over a certified
// instance, per scheme.
func BenchmarkDecoders(b *testing.B) {
	runs := []struct {
		name string
		s    core.Scheme
		g    *graph.Graph
		anon bool
	}{
		{"trivial/grid6x6", decoders.Trivial(2), graph.Grid(6, 6), true},
		{"degree-one/spider", decoders.DegreeOne(), graph.Spider([]int{5, 5, 5}), true},
		{"even-cycle/C64", decoders.EvenCycle(), graph.MustCycle(64), true},
		{"shatter/grid6x6", decoders.Shatter(), graph.Grid(6, 6), false},
		{"watermelon/4x16", decoders.Watermelon(), graph.MustWatermelon([]int{16, 16, 16, 16}), false},
	}
	for _, r := range runs {
		b.Run(r.name, func(b *testing.B) {
			var inst core.Instance
			if r.anon {
				inst = core.NewAnonymousInstance(r.g)
			} else {
				inst = core.NewInstance(r.g)
			}
			labels, err := r.s.Prover.Certify(inst)
			if err != nil {
				b.Fatal(err)
			}
			l := core.MustNewLabeled(inst, labels)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(r.s.Decoder, l); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNeighborhoodGraph measures V(D, n) slice construction — the
// Lemma 3.1 algorithm — sequentially (one shard, one worker) at two scales,
// plus the worker-pool ablation.
func BenchmarkNeighborhoodGraph(b *testing.B) {
	s := decoders.DegreeOne()
	b.Run("degree-one/n3", func(b *testing.B) {
		fam := decoders.DegOneFamily(3)
		for i := 0; i < b.N; i++ {
			if _, err := nbhd.BuildShardedCtx(nil, obs.Scope{}, s.Decoder, nbhd.ShardedAllLabelings(decoders.DegOneAlphabet(), fam...), 1, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("degree-one/n4", func(b *testing.B) {
		fam := decoders.DegOneFamily(4)
		for i := 0; i < b.N; i++ {
			if _, err := nbhd.BuildShardedCtx(nil, obs.Scope{}, s.Decoder, nbhd.ShardedAllLabelings(decoders.DegOneAlphabet(), fam...), 1, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("degree-one/n4-sharded-w%d", w), func(b *testing.B) {
			fam := decoders.DegOneFamily(4)
			for i := 0; i < b.N; i++ {
				if _, err := nbhd.BuildShardedCtx(nil, obs.Scope{}, s.Decoder, nbhd.ShardedAllLabelings(decoders.DegOneAlphabet(), fam...), 4*w, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildShardedCtx pins the context plumbing at no measurable
// overhead: the bare build (nil never-cancelled context, zero Scope)
// against the same build under a live context that never fires (one armed
// watcher goroutine; the per-instance hot path is unchanged — cancellation
// rides the stop flag workers already poll). The bench gate tracks both via
// .bench-thresholds.json.
func BenchmarkBuildShardedCtx(b *testing.B) {
	s := decoders.DegreeOne()
	fam := decoders.DegOneFamily(4)
	se := nbhd.ShardedAllLabelings(decoders.DegOneAlphabet(), fam...)
	b.Run("bare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := nbhd.BuildShardedCtx(nil, obs.Scope{}, s.Decoder, se, 8, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ctx", func(b *testing.B) {
		ctx, stop := context.WithCancel(context.Background())
		defer stop()
		for i := 0; i < b.N; i++ {
			if _, err := nbhd.BuildShardedCtx(ctx, obs.Scope{}, s.Decoder, se, 8, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkShardedEnumeration isolates the sharded enumeration layer from
// view extraction: it drains the n=4 DegreeOne labeling space through the
// work-stealing driver at several shard/worker counts, against the
// single-shard baseline.
func BenchmarkShardedEnumeration(b *testing.B) {
	fam := decoders.DegOneFamily(4)
	se := nbhd.ShardedAllLabelings(decoders.DegOneAlphabet(), fam...)
	want, err := countInstances(se, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct{ shards, workers int }{{1, 1}, {4, 1}, {8, 2}, {16, 4}, {32, 8}} {
		b.Run(fmt.Sprintf("shards%d-w%d", c.shards, c.workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				got, err := countInstances(se, c.shards, c.workers)
				if err != nil {
					b.Fatal(err)
				}
				if got != want {
					b.Fatalf("counted %d instances, want %d", got, want)
				}
			}
		})
	}
}

// countInstances drains the sharded enumerator through the work-stealing
// pool (nbhd.ForEachShardCtx) and returns the number of instances produced.
func countInstances(se nbhd.ShardedEnumerator, shards, workers int) (int, error) {
	var n atomic.Int64
	err := nbhd.ForEachShardCtx(nil, obs.Scope{}, se, shards, workers, func(int, core.Labeled) bool {
		n.Add(1)
		return true
	})
	return int(n.Load()), err
}

// BenchmarkE15KColoring times the k-coloring generalization experiment.
func BenchmarkE15KColoring(b *testing.B) { benchExperiment(b, experiments.E15KColoring) }

// BenchmarkKColoring measures the peeling+DSATUR colorability decision on
// a large accepting neighborhood graph (the E15 hot spot).
func BenchmarkKColoring(b *testing.B) {
	s := decoders.DegreeOneK(3)
	var insts []core.Instance
	for n := 2; n <= 4; n++ {
		graph.EnumConnectedGraphs(n, func(g *graph.Graph) bool {
			if g.MinDegree() == 1 && g.IsKColorable(3) {
				gc := g.Clone()
				insts = append(insts, core.Instance{G: gc, Prt: graph.DefaultPorts(gc), NBound: 4})
			}
			return true
		})
	}
	ng, err := nbhd.BuildShardedCtx(nil, obs.Scope{}, s.Decoder, nbhd.ShardedAllLabelings(decoders.DegOneKAlphabet(3), insts...), 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !ng.IsKColorable(3) {
			b.Fatal("slice unexpectedly non-3-colorable")
		}
	}
}

// BenchmarkSoundnessSearch ablates exhaustive labeling enumeration vs
// seeded fuzzing for strong-soundness checking (DESIGN.md Section 4).
func BenchmarkSoundnessSearch(b *testing.B) {
	s := decoders.DegreeOne()
	inst := core.NewAnonymousInstance(graph.MustCycle(5))
	b.Run("exhaustive-4^5", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := core.ExhaustiveStrongSoundnessParallelCtx(nil, obs.Scope{}, s.Decoder, s.Promise.Lang, inst, decoders.DegOneAlphabet(), 1, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	big := core.NewAnonymousInstance(graph.MustCycle(7))
	b.Run("exhaustive-4^7", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := core.ExhaustiveStrongSoundnessParallelCtx(nil, obs.Scope{}, s.Decoder, s.Promise.Lang, big, decoders.DegOneAlphabet(), 1, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("exhaustive-4^7-parallel-w%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := core.ExhaustiveStrongSoundnessParallelCtx(nil, obs.Scope{}, s.Decoder, s.Promise.Lang, big, decoders.DegOneAlphabet(), 4*w, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The 4^10 sweep on the fixed graph of the bench/ sweep-n10 workload
	// (edge list copied: bench/ is its own module). w1 runs the sequential
	// path; w2 runs the sharded one with the workload's 4 shards per worker.
	sweep := core.NewAnonymousInstance(graph.MustFromEdges(10, [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 2},
		{0, 5}, {5, 6}, {5, 7}, {6, 8}, {6, 9},
	}))
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("exhaustive-4^10-w%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := core.ExhaustiveStrongSoundnessParallelCtx(nil, obs.Scope{}, s.Decoder, s.Promise.Lang, sweep, decoders.DegOneAlphabet(), 0, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGatherFaults measures fault-injected view gathering under a
// representative chaos plan (drops, duplicates, delays, reorder) on a grid.
func BenchmarkGatherFaults(b *testing.B) {
	g := graph.Grid(8, 8)
	l := core.MustNewLabeled(core.NewInstance(g), make([]string, g.N()))
	plan := faults.Plan{Seed: 7, Drop: 0.1, Duplicate: 0.1, Delay: 0.2, MaxDelay: 2, Reorder: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := sim.GatherFaultsCtx(nil, obs.Scope{}, l, 2, plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunScheme measures the end-to-end distributed-certification run:
// prover certify, message-passing gather, decoder at every node.
func BenchmarkRunScheme(b *testing.B) {
	s := decoders.EvenCycle()
	inst := core.NewAnonymousInstance(graph.MustCycle(64))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr, err := sim.RunSchemeFaultsCtx(nil, obs.Scope{}, s, inst, faults.Plan{})
		if err != nil {
			b.Fatal(err)
		}
		for v, verdict := range fr.Verdicts {
			if !verdict.Accepted() {
				b.Fatalf("node %d rejects a certified even cycle", v)
			}
		}
	}
}

// BenchmarkNGraphIndexOfView measures node lookup on a built neighborhood
// graph through the interner (handle-indexed): cached-key queries isolate
// the lookup itself, fresh queries include the canonicalization of an
// un-keyed clone.
func BenchmarkNGraphIndexOfView(b *testing.B) {
	s := decoders.DegreeOne()
	fam := decoders.DegOneFamily(3)
	ng, err := nbhd.BuildShardedCtx(nil, obs.Scope{}, s.Decoder, nbhd.ShardedAllLabelings(decoders.DegOneAlphabet(), fam...), 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	if ng.Size() == 0 {
		b.Fatal("empty neighborhood graph")
	}
	b.Run("cached-key", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mu := ng.ViewAt(i % ng.Size())
			if ng.IndexOfView(mu) < 0 {
				b.Fatal("member view not found")
			}
		}
	})
	b.Run("fresh-key", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mu := ng.ViewAt(i % ng.Size()).Clone()
			if ng.IndexOfView(mu) < 0 {
				b.Fatal("member view not found")
			}
		}
	})
}

// BenchmarkForgetfulCheck measures the exact r-forgetfulness decision.
func BenchmarkForgetfulCheck(b *testing.B) {
	tor, err := graph.Torus(6, 6)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if ok, _, _ := forgetful.IsRForgetful(tor, 1); !ok {
			b.Fatal("6x6 torus must be 1-forgetful")
		}
	}
}

// BenchmarkE16PromiseFreeLCL times the Section 1 LCL application.
func BenchmarkE16PromiseFreeLCL(b *testing.B) { benchExperiment(b, experiments.E16PromiseFreeLCL) }
