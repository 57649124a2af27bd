package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hidinglcp/internal/graph"
	"hidinglcp/internal/obs"
	"hidinglcp/internal/view"
)

// countingDecoder wraps a decoder and counts Decide calls, to verify the
// memo layer's deduplication.
type countingDecoder struct {
	Decoder
	mu    sync.Mutex
	calls int
}

func (c *countingDecoder) Decide(mu *view.View) bool {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	return c.Decoder.Decide(mu)
}

func memoTestViews(t testing.TB) []*view.View {
	t.Helper()
	var out []*view.View
	for _, g := range []*graph.Graph{graph.MustCycle(4), graph.MustCycle(6), graph.Grid(2, 3)} {
		pt := graph.DefaultPorts(g)
		labels := make([]string, g.N())
		for i := range labels {
			labels[i] = []string{"0", "1"}[i%2]
		}
		for v := 0; v < g.N(); v++ {
			out = append(out, view.MustExtract(g, pt, nil, labels, g.N(), v, 1))
		}
	}
	return out
}

// TestMemoDecoderEquivalence checks that the memoized decoder returns
// exactly the inner decoder's verdicts while calling it once per class.
func TestMemoDecoderEquivalence(t *testing.T) {
	views := memoTestViews(t)
	inner := &countingDecoder{Decoder: revealDecoder()}
	md := NewMemoDecoder(inner, nil)
	if md.Rounds() != inner.Rounds() || md.Anonymous() != inner.Anonymous() {
		t.Fatal("memo decoder does not pass through Rounds/Anonymous")
	}
	want := make([]bool, len(views))
	for i, mu := range views {
		want[i] = revealDecoder().Decide(mu)
	}
	for pass := 0; pass < 3; pass++ {
		for i, mu := range views {
			if got := md.Decide(mu.Clone()); got != want[i] {
				t.Fatalf("pass %d view %d: memoized verdict %v, want %v", pass, i, got, want[i])
			}
		}
	}
	distinct := make(map[string]bool)
	for _, mu := range views {
		distinct[string(mu.BinKey())] = true
	}
	if inner.calls != len(distinct) {
		t.Fatalf("inner decoder called %d times, want one per class (%d)", inner.calls, len(distinct))
	}
	calls, misses := md.Stats()
	if int(calls) != 3*len(views) || int(misses) != len(distinct) {
		t.Fatalf("Stats() = (%d, %d), want (%d, %d)", calls, misses, 3*len(views), len(distinct))
	}
}

// TestMemoDecoderInterned checks the handle-keyed entry point against the
// view-keyed one, sharing one interner.
func TestMemoDecoderInterned(t *testing.T) {
	views := memoTestViews(t)
	in := view.NewInterner()
	md := NewMemoDecoder(revealDecoder(), in)
	if md.in != in {
		t.Fatal("the memo does not use the shared interner")
	}
	for _, mu := range views {
		h := in.InternKey(mu.BinKey(), mu)
		if md.DecideInterned(h, mu) != md.Decide(mu.Clone()) {
			t.Fatal("DecideInterned disagrees with Decide")
		}
	}
}

// TestMemoDecoderConcurrent hammers one memoized decoder from many
// goroutines, through Decide and through DecideInterned, over handles in
// three verdict chunks, so that goroutines race to allocate the chunks as
// well as to fill them. Correctness is re-checked against the inner
// decoder and the race detector covers the synchronization.
func TestMemoDecoderConcurrent(t *testing.T) {
	views := memoTestViews(t)
	// Cycle views whose center label is unique: one class each, enough for
	// handles in the first three verdict chunks (1, 2 and 4 times
	// memoFirstSize long).
	g := graph.MustCycle(3)
	pt := graph.DefaultPorts(g)
	for i := 0; i < 3*memoFirstSize; i++ {
		views = append(views, view.MustExtract(g, pt, nil, []string{fmt.Sprint(i), "0", "1"}, g.N(), 0, 1))
	}
	in := view.NewInterner()
	handles := make([]view.Handle, len(views))
	want := make([]bool, len(views))
	ref := NewDecoder(1, true, func(mu *view.View) bool { return len(mu.Labels[view.Center])%2 == 0 })
	for i, mu := range views {
		handles[i] = in.InternKey(mu.BinKey(), mu)
		want[i] = ref.Decide(mu)
	}
	if c, _ := memoLocate(view.Handle(in.Len() - 1)); c != 2 {
		t.Fatalf("interned %d classes, whose last verdict is in chunk %d; want chunk 2", in.Len(), c)
	}
	// The chunks reach the last handle an interner may assign.
	if c, off := memoLocate(1<<23 - 1); c >= memoMaxChunks || off >= memoFirstSize<<c {
		t.Fatalf("handle 2^23-1 is at chunk %d offset %d, past %d chunks", c, off, memoMaxChunks)
	}
	md := NewMemoDecoder(ref, in)
	const workers = 8
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range views {
				// Workers go in pairs over one order, so that two of them
				// often miss on the same class, or the same chunk, at once.
				i := (j + w/2*769) % len(views)
				var got bool
				if j%4 == 0 {
					got = md.Decide(views[i].Clone())
				} else {
					got = md.DecideInterned(handles[i], views[i])
				}
				if got != want[i] {
					errc <- fmt.Errorf("worker %d: view %d: memoized verdict %v, want %v", w, i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	// Every class is decided now: a further pass is all hits.
	_, before := md.Stats()
	for i, mu := range views {
		if md.DecideInterned(handles[i], mu) != want[i] {
			t.Fatalf("view %d: verdict changed after the concurrent pass", i)
		}
	}
	if _, after := md.Stats(); after != before {
		t.Fatalf("a pass over decided classes missed the memo %d times", after-before)
	}
}

// TestMemoDecoderKeepsRepresentatives runs a memoized decoder through Run,
// which refills one scratch view per node, and checks that every class
// representative the memo interned still keys as its own class.
func TestMemoDecoderKeepsRepresentatives(t *testing.T) {
	g := graph.Spider([]int{1, 2, 3})
	coloring, ok := g.TwoColoring()
	if !ok {
		t.Fatal("spider is not bipartite")
	}
	labels := make([]string, g.N())
	for v, c := range coloring {
		labels[v] = []string{"0", "1"}[c]
	}
	in := view.NewInterner()
	if _, err := Run(NewMemoDecoder(revealDecoder(), in), MustNewLabeled(NewAnonymousInstance(g), labels)); err != nil {
		t.Fatal(err)
	}
	if in.Len() < 2 {
		t.Fatalf("Run interned %d classes, want several", in.Len())
	}
	for h := view.Handle(0); int(h) < in.Len(); h++ {
		if got, ok := in.LookupKey(in.ViewOf(h).BinKey()); !ok || got != h {
			t.Errorf("the representative of class %d keys as class %d (found %v)", h, got, ok)
		}
	}
}

// acceptAllDecoder makes violations easy to manufacture: every node accepts,
// so the accepting set is the whole instance.
func acceptAllDecoder() Decoder {
	return NewDecoder(1, true, func(mu *view.View) bool { return true })
}

// referenceExhaustive is the pre-sweep formulation: one fresh Labeled and a
// full CheckStrongSoundness per labeling.
func referenceExhaustive(d Decoder, lang Language, inst Instance, alphabet []string) error {
	n := inst.G.N()
	var firstErr error
	graph.EnumLabelings(n, len(alphabet), func(idx []int) bool {
		labels := make([]string, n)
		for v, a := range idx {
			labels[v] = alphabet[a]
		}
		l, err := NewLabeled(inst, labels)
		if err != nil {
			firstErr = err
			return false
		}
		if err := CheckStrongSoundness(d, lang, l); err != nil {
			firstErr = err
			return false
		}
		return true
	})
	return firstErr
}

// TestSweepMatchesReference compares the template/memo sweep against the
// per-labeling reference on instances with and without violations,
// including the identity of the first violation.
func TestSweepMatchesReference(t *testing.T) {
	alphabet := []string{"0", "1", "x"}
	cases := []struct {
		name string
		d    Decoder
		lang Language
		inst Instance
	}{
		{"reveal-no-violation-C4", revealDecoder(), TwoCol(), NewAnonymousInstance(graph.MustCycle(4))},
		{"reveal-no-violation-C5", revealDecoder(), TwoCol(), NewAnonymousInstance(graph.MustCycle(5))},
		{"accept-all-violation-C3", acceptAllDecoder(), TwoCol(), NewAnonymousInstance(graph.MustCycle(3))},
		{"accept-all-violation-K4", acceptAllDecoder(), TwoCol(), NewAnonymousInstance(graph.Complete(4))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := ExhaustiveStrongSoundnessParallelCtx(nil, obs.Scope{}, tc.d, tc.lang, tc.inst, alphabet, 1, 1)
			want := referenceExhaustive(tc.d, tc.lang, tc.inst, alphabet)
			if (got == nil) != (want == nil) {
				t.Fatalf("sweep err=%v, reference err=%v", got, want)
			}
			if got == nil {
				return
			}
			var gv, wv *StrongSoundnessViolation
			if !errors.As(got, &gv) || !errors.As(want, &wv) {
				t.Fatalf("non-violation errors: sweep %v, reference %v", got, want)
			}
			if gv.Error() != wv.Error() {
				t.Fatalf("first violations differ:\nsweep:     %v\nreference: %v", gv, wv)
			}
		})
	}
}

// TestSweepFuzzMatchesReference drives the fuzz path and the reference with
// identical random streams and compares trial-for-trial outcomes.
func TestSweepFuzzMatchesReference(t *testing.T) {
	gen := func(node int, rng *rand.Rand) string {
		return []string{"0", "1", "x"}[rng.Intn(3)]
	}
	for _, tc := range []struct {
		name string
		d    Decoder
		inst Instance
	}{
		{"reveal-C5", revealDecoder(), NewAnonymousInstance(graph.MustCycle(5))},
		{"accept-all-C3", acceptAllDecoder(), NewAnonymousInstance(graph.MustCycle(3))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := FuzzStrongSoundness(nil, obs.Scope{}, tc.d, TwoCol(), tc.inst, 60, rand.New(rand.NewSource(7)), gen, 1)

			// Reference replay with an identically seeded stream.
			rng := rand.New(rand.NewSource(7))
			n := tc.inst.G.N()
			var want error
			for trial := 0; trial < 60 && want == nil; trial++ {
				labels := make([]string, n)
				for v := range labels {
					labels[v] = gen(v, rng)
				}
				l := MustNewLabeled(tc.inst, labels)
				if err := CheckStrongSoundness(tc.d, TwoCol(), l); err != nil {
					want = err
				}
			}
			if (got == nil) != (want == nil) {
				t.Fatalf("fuzz sweep err=%v, reference err=%v", got, want)
			}
			if got != nil {
				var gv, wv *StrongSoundnessViolation
				if !errors.As(got, &gv) || !errors.As(want, &wv) {
					t.Fatalf("non-violation errors: %v vs %v", got, want)
				}
				if gv.Error() != wv.Error() {
					t.Fatalf("violations differ:\nsweep:     %v\nreference: %v", gv, wv)
				}
			}
		})
	}
}
