package core

import (
	"math/rand"
	"testing"

	"hidinglcp/internal/graph"
	"hidinglcp/internal/view"
)

// keyRecorder records the canonical key of every view it decides, in call
// order, and accepts iff the key has even length.
type keyRecorder struct {
	r    int
	anon bool
	keys []string
}

func (d *keyRecorder) Rounds() int     { return d.r }
func (d *keyRecorder) Anonymous() bool { return d.anon }
func (d *keyRecorder) Decide(mu *view.View) bool {
	d.keys = append(d.keys, string(mu.BinKey()))
	return len(mu.BinKey())%2 == 0
}

// TestRunMatchesViewsAnonymize pins Run's one-scratch walk to the path it
// replaced: every view extracted by Labeled.Views and anonymized for an
// anonymous decoder. Over every connected graph on up to 5 nodes under
// default ports, with seeded random labels, with and without identifiers
// and at radii 1 and 2, an anonymous and a non-anonymous decoder see the
// reference keys in node order and return the reference verdicts.
func TestRunMatchesViewsAnonymize(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	alphabet := []string{"", "a", "bc", "d"}
	checked := 0
	for n := 1; n <= 5; n++ {
		graph.EnumConnectedGraphs(n, func(g *graph.Graph) bool {
			labels := make([]string, n)
			for v := range labels {
				labels[v] = alphabet[rng.Intn(len(alphabet))]
			}
			for _, inst := range []Instance{NewInstance(g), NewAnonymousInstance(g)} {
				l := MustNewLabeled(inst, labels)
				for r := 1; r <= 2; r++ {
					views, err := l.Views(r)
					if err != nil {
						t.Fatal(err)
					}
					for _, anon := range []bool{false, true} {
						d := &keyRecorder{r: r, anon: anon}
						out, err := Run(d, l)
						if err != nil {
							t.Fatal(err)
						}
						if len(d.keys) != n {
							t.Fatalf("%v r=%d anon=%v: %d Decide calls, want %d", g, r, anon, len(d.keys), n)
						}
						for v, mu := range views {
							if anon {
								mu = mu.Anonymize()
							}
							want := string(mu.BinKey())
							if d.keys[v] != want || out[v] != (len(want)%2 == 0) {
								t.Fatalf("%v ids=%v r=%d anon=%v node %d: Run saw key %q (verdict %v), want %q", g, inst.IDs != nil, r, anon, v, d.keys[v], out[v], want)
							}
						}
						checked++
					}
				}
			}
			return true
		})
	}
	if checked == 0 {
		t.Fatal("no instance checked")
	}
}
