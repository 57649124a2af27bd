package core

import (
	"errors"
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
	if md.Interner() != in {
		t.Fatal("Interner() does not return the shared interner")
	}
	for _, mu := range views {
		h := in.Intern(mu)
		if md.DecideInterned(h, mu) != md.Decide(mu.Clone()) {
			t.Fatal("DecideInterned disagrees with Decide")
		}
	}
}

// TestMemoDecoderConcurrent hammers one memoized decoder from many
// goroutines; correctness is re-checked sequentially afterwards and the
// race detector covers the synchronization.
func TestMemoDecoderConcurrent(t *testing.T) {
	views := memoTestViews(t)
	md := NewMemoDecoder(revealDecoder(), nil)
	ref := revealDecoder()
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				mu := views[(i*5+w)%len(views)]
				if md.Decide(mu.Clone()) != ref.Decide(mu.Clone()) {
					select {
					case errc <- errors.New("concurrent memo verdict mismatch"):
					default:
					}
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
			got := exhaustiveSequential(nil, obs.Scope{}, tc.d, tc.lang, tc.inst, alphabet)
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
			got := FuzzStrongSoundnessParallelCtx(nil, obs.Scope{}, tc.d, TwoCol(), tc.inst, 60, rand.New(rand.NewSource(7)), gen, 1)

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
