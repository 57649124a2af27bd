package nbhd

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"hidinglcp/internal/decoders"
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
	tmplHits := sc.Counter("nbhd.views.template_memo_hits").Value()
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
	// Every extracted view hits the interner exactly once, and every
	// template-memo hit skipped an extraction: views + hits = node-visits.
	hits := sc.Counter("nbhd.intern.hits").Value()
	if views != hits+misses {
		t.Errorf("views extracted (%d) != intern hits (%d) + misses (%d)", views, hits, misses)
	}
	// Each instance visits every node once, so the per-node outcomes
	// (extractions + memo hits) must at least cover the instance count,
	// and sweeping many labelings of fixed instances must hit the memo.
	if views+tmplHits < instances {
		t.Errorf("views (%d) + template memo hits (%d) < instances (%d)", views, tmplHits, instances)
	}
	if tmplHits == 0 {
		t.Error("template memo never hit across a full labeling sweep")
	}
	if got := sc.Gauge("nbhd.intern.classes").Value(); got != int64(misses) {
		t.Errorf("intern.classes gauge = %d, want %d (one class per miss)", got, misses)
	}
	if got := sc.Gauge("nbhd.views.accepting").Value(); got != int64(scoped.Size()) {
		t.Errorf("views.accepting gauge = %d, want %d", got, scoped.Size())
	}
	if h := sc.Histogram("nbhd.build.duration_ns"); h.Count() != 1 {
		t.Errorf("build duration histogram has %d observations, want 1", h.Count())
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
