package view_test

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
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

// TestInternerConcurrentGrowth interns thousands of classes, enough to double
// the probe table several times, from writer goroutines while reader
// goroutines look up classes interned beforehand and probe the rest. A
// reader holding a table that growth has replaced may miss a new class, but
// a class it finds must already have its final handle, and a class interned
// before the writers started must always be found.
func TestInternerConcurrentGrowth(t *testing.T) {
	// Cycle views under many label sets: every node's label differs from
	// every other node's in every set, so each view is its own class.
	g := graph.MustCycle(5)
	pt := graph.DefaultPorts(g)
	var pool []*view.View
	for set := 0; set < 1200; set++ {
		labels := make([]string, g.N())
		for i := range labels {
			labels[i] = fmt.Sprintf("s%d-%d", set, i)
		}
		for v := 0; v < g.N(); v++ {
			pool = append(pool, view.MustExtract(g, pt, nil, labels, g.N(), v, 1))
		}
	}
	keys := make([][]byte, len(pool))
	for i, mu := range pool {
		keys[i] = mu.BinKey()
	}
	in := view.NewInterner()
	// Intern a first batch alone; readers must find it throughout.
	const seeded = 100
	pre := make([]view.Handle, seeded)
	for i := range pre {
		pre[i] = in.InternKey(keys[i], pool[i].Clone())
	}

	const writers, readers = 4, 4
	results := make([][]view.Handle, writers)
	found := make([][]view.Handle, readers) // found[r][i] = handle+1, 0 if never found
	var stop atomic.Bool
	errc := make(chan error, readers)
	var wg, wwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		wwg.Add(1)
		go func() {
			defer wg.Done()
			defer wwg.Done()
			got := make([]view.Handle, len(pool))
			for j := range pool {
				// Writers go in pairs over one order, so that two of them
				// often miss on the same new class at once.
				i := (j + w/2*997) % len(pool)
				got[i] = in.InternKey(keys[i], pool[i].Clone())
			}
			results[w] = got
		}()
	}
	for r := 0; r < readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := make([]view.Handle, len(pool))
			for j := 0; !stop.Load(); j++ {
				i := j % seeded
				if h, ok := in.LookupKey(keys[i]); !ok || h != pre[i] {
					errc <- fmt.Errorf("reader %d: LookupKey of pre-interned key %d = %d, %v; want %d, true", r, i, h, ok, pre[i])
					return
				}
				i = (j*13 + r*101) % len(pool)
				if h, ok := in.LookupKey(keys[i]); ok {
					if seen[i] != 0 && seen[i] != h+1 {
						errc <- fmt.Errorf("reader %d: key %d found as handle %d, then %d", r, i, seen[i]-1, h)
						return
					}
					seen[i] = h + 1
				}
			}
			found[r] = seen
		}()
	}
	wwg.Wait()
	stop.Store(true)
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	if in.Len() != len(pool) {
		t.Fatalf("interner holds %d classes, want %d", in.Len(), len(pool))
	}
	dense := make([]bool, len(pool))
	for i, h := range results[0] {
		for w := 1; w < writers; w++ {
			if results[w][i] != h {
				t.Fatalf("key %d: writer %d got handle %d, writer 0 got %d", i, w, results[w][i], h)
			}
		}
		if i < seeded && h != pre[i] {
			t.Fatalf("pre-interned key %d changed handle %d -> %d", i, pre[i], h)
		}
		if int(h) >= len(pool) || dense[h] {
			t.Fatalf("handle %d out of range or given to two keys", h)
		}
		dense[h] = true
		if !bytes.Equal(in.ViewOf(h).BinKey(), keys[i]) {
			t.Fatalf("ViewOf(%d) does not key as its class", h)
		}
		for r := range found {
			if s := found[r][i]; s != 0 && s != h+1 {
				t.Fatalf("reader %d found key %d as handle %d, final handle %d", r, i, s-1, h)
			}
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
