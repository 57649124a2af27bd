package nbhd

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"hidinglcp/internal/core"
	"hidinglcp/internal/decoders"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/obs"
)

// TestBuildShardedScopedEquivalence pins the central observability
// guarantee: attaching a live scope changes what is measured, never what is
// built. The instrumented build must be deep-equal to the bare one, and the
// headline counters must come out nonzero and mutually consistent.
func TestBuildShardedScopedEquivalence(t *testing.T) {
	s := decoders.DegreeOne()
	fam := decoders.DegOneFamily(3)
	alpha := decoders.DegOneAlphabet()

	bare, err := BuildShardedCtx(context.Background(), obs.Scope{}, s.Decoder, ShardedAllLabelings(alpha, fam...), 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	sc := obs.NewScope().WithTracer(obs.NewTracer(64))
	scoped, err := BuildShardedCtx(context.Background(), sc, s.Decoder, ShardedAllLabelings(alpha, fam...), 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if diff := ngEqual(bare, scoped); diff != "" {
		t.Fatalf("instrumented build diverged from bare build: %s", diff)
	}

	instances := sc.Counter("nbhd.instances").Value()
	views := sc.Counter("nbhd.views.extracted").Value()
	hits := sc.Counter("nbhd.intern.hits").Value()
	misses := sc.Counter("nbhd.intern.misses").Value()
	decodes := sc.Counter("nbhd.decode.calls").Value()
	done := sc.Counter("nbhd.shards.done").Value()
	if instances == 0 || views == 0 || misses == 0 || decodes == 0 || done == 0 {
		t.Errorf("headline counters must be nonzero: instances=%d views=%d intern.misses=%d decode.calls=%d shards.done=%d",
			instances, views, misses, decodes, done)
	}
	if done != 8 {
		t.Errorf("shards.done = %d, want 8", done)
	}
	// Every view of every instance consults the interner exactly once.
	if views != hits+misses {
		t.Errorf("views extracted (%d) != intern hits (%d) + misses (%d)", views, hits, misses)
	}
	if views < instances {
		t.Errorf("views (%d) < instances (%d)", views, instances)
	}
	// Sweeping many labelings of fixed instances meets most classes many
	// times over.
	if hits <= misses {
		t.Errorf("intern hits (%d) <= misses (%d) across a full labeling sweep", hits, misses)
	}
	if got := sc.Gauge("nbhd.intern.classes").Value(); got != int64(misses) {
		t.Errorf("intern.classes gauge = %d, want %d (one class per miss)", got, misses)
	}
	if got := sc.Gauge("nbhd.views.accepting").Value(); got != int64(scoped.Size()) {
		t.Errorf("views.accepting gauge = %d, want %d", got, scoped.Size())
	}
	for _, m := range sc.Registry().Snapshot() {
		if m.Name == "nbhd.build.duration_ns" && m.Count != 1 {
			t.Errorf("build duration histogram has %d observations, want 1", m.Count)
		}
	}

	spans := sc.Tracer().Spans()
	var haveBuild bool
	for _, sp := range spans {
		if sp.Name == "nbhd.build" {
			haveBuild = true
		}
	}
	if !haveBuild {
		t.Errorf("no nbhd.build span recorded; spans: %+v", spans)
	}
}

// TestBuildShardedScopedProgress wires a fast-ticking Progress into the
// build and requires at least the final phase line to land on the writer.
func TestBuildShardedScopedProgress(t *testing.T) {
	var buf lockedBuffer
	prog := obs.NewProgress(&buf, 5*time.Millisecond)
	defer prog.Close()
	sc := obs.NewScope().WithProgress(prog).Named("E99")

	s := decoders.DegreeOne()
	fam := decoders.DegOneFamily(3)
	if _, err := BuildShardedCtx(context.Background(), sc, s.Decoder, ShardedAllLabelings(decoders.DegOneAlphabet(), fam...), 6, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "E99: build") {
		t.Errorf("progress output missing named build phase:\n%s", out)
	}
	if !strings.Contains(out, "6/6") {
		t.Errorf("progress output missing final shard count:\n%s", out)
	}
}

type lockedBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// e15Slice is the E15 k=3 slice: every connected graph on at most 4 nodes
// with a leaf that is 3-colorable, default ports, N = 4.
func e15Slice() []core.Instance {
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
	return insts
}

// TestBuildCanonicalizesOncePerBuild pins the quotient and the
// instance-major deal of ShardedAllLabelings and the builders' skeleton
// keying. The build sweeps one instance per port-preserving isomorphism
// class. When there are at least as many classes as shards, every class
// lives in one shard, so the build extracts each representative's
// templates exactly once, whatever the shard and worker counts. With more
// shards than classes, a representative's labeling parts land on several
// shards, and whether one worker meets two parts of it in a row depends on
// scheduling: templates.built then lies between the class count and the
// number of (instance, part) units. Every view of every labeling is keyed
// and probed once, so views.extracted is Σ n·|alphabet|^n over the
// representatives at every shard and worker count. The per-builder verdict
// table bounds memo-decoder consults by one per class per worker.
func TestBuildCanonicalizesOncePerBuild(t *testing.T) {
	cases := []struct {
		name     string
		d        core.Decoder
		alphabet []string
		insts    []core.Instance
		classes  int64
		labeled  int64 // labelings of the representatives
		views    int64 // Σ n·|alphabet|^n over the representatives
	}{
		{"degree-one/n4", decoders.DegreeOne().Decoder,
			decoders.DegOneAlphabet(), decoders.DegOneFamily(4), 6, 1104, 4320},
		{"E15/k3", decoders.DegreeOneK(3).Decoder,
			decoders.DegOneKAlphabet(3), e15Slice(), 15, 8275, 32925},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reps := core.Representatives(c.insts)
			if int64(len(reps)) != c.classes {
				t.Fatalf("%d instances in %d classes, want %d", len(c.insts), len(reps), c.classes)
			}
			var labeled, nodeLabelings int64
			for _, inst := range reps {
				l := int64(1)
				for range inst.G.N() {
					l *= int64(len(c.alphabet))
				}
				labeled += l
				nodeLabelings += int64(inst.G.N()) * l
			}
			if labeled != c.labeled || nodeLabelings != c.views {
				t.Fatalf("representatives have %d labelings and %d views, want %d and %d",
					labeled, nodeLabelings, c.labeled, c.views)
			}
			se := ShardedAllLabelings(c.alphabet, c.insts...)
			for _, sw := range [][2]int{{1, 1}, {8, 2}, {16, 4}} {
				shards, workers := sw[0], sw[1]
				sc := obs.NewScope()
				if _, err := BuildShardedCtx(context.Background(), sc, c.d, se, shards, workers); err != nil {
					t.Fatal(err)
				}
				views := sc.Counter("nbhd.views.extracted").Value()
				templates := sc.Counter("nbhd.templates.built").Value()
				classes := sc.Gauge("nbhd.intern.classes").Value()
				if got := sc.Counter("nbhd.instances").Value(); got != c.labeled {
					t.Errorf("shards=%d workers=%d: instances=%d, want %d", shards, workers, got, c.labeled)
				}
				if int64(shards) <= c.classes {
					if templates != c.classes {
						t.Errorf("shards=%d workers=%d: templates.built=%d, want %d", shards, workers, templates, c.classes)
					}
				} else {
					units := c.classes * ((int64(shards) + c.classes - 1) / c.classes)
					if templates < c.classes || templates > units {
						t.Errorf("shards=%d workers=%d: templates.built=%d outside [classes %d, (instance, part) units %d]",
							shards, workers, templates, c.classes, units)
					}
				}
				if views != c.views {
					t.Errorf("shards=%d workers=%d: views.extracted=%d, want %d", shards, workers, views, c.views)
				}
				calls := sc.Counter("nbhd.decode.calls").Value()
				if calls > int64(workers)*classes {
					t.Errorf("shards=%d workers=%d: decode.calls=%d > workers × intern.classes = %d",
						shards, workers, calls, int64(workers)*classes)
				}
			}
		})
	}
}
