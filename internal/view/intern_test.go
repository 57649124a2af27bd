package view_test

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"hidinglcp/internal/graph"
	"hidinglcp/internal/view"
)

// sampleViews builds a varied pool of views (grids, cycles, stars; with and
// without identifiers) for extractor and interner tests.
func sampleViews(t testing.TB) []*view.View {
	t.Helper()
	var out []*view.View
	hosts := []*graph.Graph{
		graph.Grid(3, 3),
		graph.MustCycle(6),
		graph.Complete(4),
		graph.Spider([]int{2, 2, 2}),
	}
	for gi, g := range hosts {
		pt := graph.DefaultPorts(g)
		ids := graph.SequentialIDs(g.N())
		labels := make([]string, g.N())
		for i := range labels {
			labels[i] = fmt.Sprintf("g%d-%d", gi, i%3)
		}
		for r := 0; r <= 2; r++ {
			for v := 0; v < g.N(); v++ {
				out = append(out, view.MustExtract(g, pt, ids, labels, g.N(), v, r))
				out = append(out, view.MustExtract(g, pt, nil, labels, g.N(), v, r))
			}
		}
	}
	return out
}

// TestExtractorReuseDoesNotCorrupt interleaves extractions from different
// host graphs and radii through ONE Extractor and checks every produced view
// against a fresh per-call extraction.
func TestExtractorReuseDoesNotCorrupt(t *testing.T) {
	type job struct {
		g      *graph.Graph
		pt     *graph.Ports
		ids    graph.IDs
		labels []string
		v, r   int
	}
	var jobs []job
	for _, g := range []*graph.Graph{graph.Grid(4, 4), graph.MustCycle(5), graph.Complete(3)} {
		pt := graph.DefaultPorts(g)
		ids := graph.SequentialIDs(g.N())
		labels := make([]string, g.N())
		for i := range labels {
			labels[i] = fmt.Sprintf("x%d", i%2)
		}
		for r := 0; r <= 2; r++ {
			for v := 0; v < g.N(); v++ {
				jobs = append(jobs, job{g, pt, ids, labels, v, r})
			}
		}
	}
	ex := new(view.Extractor)
	// Two passes in opposite orders: scratch state from any job must not
	// leak into any other.
	for pass := 0; pass < 2; pass++ {
		for i := range jobs {
			j := jobs[i]
			if pass == 1 {
				j = jobs[len(jobs)-1-i]
			}
			got, err := ex.Extract(j.g, j.pt, j.ids, j.labels, j.g.N(), j.v, j.r)
			if err != nil {
				t.Fatal(err)
			}
			want := view.MustExtract(j.g, j.pt, j.ids, j.labels, j.g.N(), j.v, j.r)
			if got.Key() != want.Key() || !bytes.Equal(got.BinKey(), want.BinKey()) {
				t.Fatalf("reused extractor diverges at job %+v", j)
			}
			if !reflect.DeepEqual(got.Dist, want.Dist) ||
				!reflect.DeepEqual(got.Ports, want.Ports) || !reflect.DeepEqual(got.IDs, want.IDs) ||
				!reflect.DeepEqual(got.Labels, want.Labels) || got.NBound != want.NBound || got.Radius != want.Radius {
				t.Fatalf("reused extractor produced different view structure at job %+v", j)
			}
		}
	}
}

// TestTemplateInstantiateIsolation checks that views instantiated from one
// template share structure but never labels: relabeling the host between
// instantiations must not disturb earlier views.
func TestTemplateInstantiateIsolation(t *testing.T) {
	g := graph.MustCycle(5)
	pt := graph.DefaultPorts(g)
	ex := new(view.Extractor)
	tpl, err := ex.Template(g, pt, nil, g.N(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	labels := []string{"a", "b", "c", "d", "e"}
	v1 := tpl.Instantiate(labels)
	k1 := v1.Key()
	labels[1] = "CHANGED"
	v2 := tpl.Instantiate(labels)
	if v1.Labels[1] == "CHANGED" {
		t.Fatal("instantiated view aliases the caller's label slice")
	}
	if v1.Key() != k1 {
		t.Fatal("earlier instantiation changed after relabeling")
	}
	if v2.Key() == k1 {
		t.Fatal("new labeling did not reach the new view")
	}
	// Shared structure is intentional: every instantiation, heap, arena or
	// scratch, points at the template's one port table and distances.
	var arena view.Arena
	var scratch view.View
	for _, v := range []*view.View{v2, tpl.InstantiateIn(&arena, labels), tpl.InstantiateInto(&scratch, labels)} {
		if v.Ports != v1.Ports || &v.Dist[0] != &v1.Dist[0] {
			t.Fatal("template instantiations should share the port rows and distances")
		}
	}
}

// TestInternerConcurrent interns overlapping batches of views from many
// goroutines and checks that equal views always receive equal handles, that
// handles are dense, and that every handle resolves to a representative of
// its class.
func TestInternerConcurrent(t *testing.T) {
	pool := sampleViews(t)
	in := view.NewInterner()
	const workers = 8
	results := make([]map[string]view.Handle, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make(map[string]view.Handle)
			for i := range pool {
				// Vary the order per worker; clone so each goroutine interns
				// a distinct *View of the same class.
				mu := pool[(i*7+w*13)%len(pool)].Clone()
				got[string(mu.BinKey())] = in.InternKey(mu.BinKey(), mu)
			}
			results[w] = got
		}()
	}
	wg.Wait()

	distinct := make(map[string]bool)
	for _, mu := range pool {
		distinct[string(mu.BinKey())] = true
	}
	if in.Len() != len(distinct) {
		t.Fatalf("interner holds %d classes, want %d", in.Len(), len(distinct))
	}
	for w := 1; w < workers; w++ {
		if !reflect.DeepEqual(results[0], results[w]) {
			t.Fatalf("worker %d saw different handles than worker 0", w)
		}
	}
	for key, h := range results[0] {
		if int(h) >= in.Len() {
			t.Fatalf("handle %d out of range %d", h, in.Len())
		}
		rep := in.ViewOf(h)
		if string(rep.BinKey()) != key {
			t.Fatalf("ViewOf(%d) is not a representative of its class", h)
		}
		if got, ok := in.LookupKey(rep.BinKey()); !ok || got != h {
			t.Fatalf("LookupKey disagrees with InternKey for handle %d", h)
		}
	}
}

// TestInternKeyCopiesProbeBuffer pins InternKey's buffer contract: the
// caller's key buffer is reused (and overwritten) right after the call, so
// on first sight the interner must keep its own copy, both as the table
// entry and as the representative's cached key.
func TestInternKeyCopiesProbeBuffer(t *testing.T) {
	in := view.NewInterner()
	handles := map[string]view.Handle{}
	var buf []byte
	for _, mu := range sampleViews(t) {
		rep := mu.Clone()
		buf = append(buf[:0], mu.BinKey()...)
		h := in.InternKey(buf, rep)
		want := string(buf)
		for i := range buf {
			buf[i] = 0xff
		}
		if prev, ok := handles[want]; ok && prev != h {
			t.Fatalf("InternKey gave handle %d for a class interned as %d", h, prev)
		}
		handles[want] = h
		if got, ok := in.LookupKey([]byte(want)); !ok || got != h {
			t.Fatalf("LookupKey after reusing the probe buffer = %d, %v; want %d, true", got, ok, h)
		}
		if string(in.ViewOf(h).BinKey()) != want {
			t.Fatal("representative's cached key aliases the probe buffer")
		}
	}
	if in.Len() != len(handles) {
		t.Fatalf("interner holds %d classes, want %d", in.Len(), len(handles))
	}
}
