package decoders

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"hidinglcp/internal/graph"
	"hidinglcp/internal/view"
)

// refParseDegOneKCert and refDegOneKDecide are the straightforward
// DegreeOneK decoder: parse every neighbour certificate into a slice first,
// build the prefix per call, and count ⊤'s distinct neighbour colors in a
// map. TestDegreeOneKDecideMatchesReference holds the streaming decoder to
// them.
func refParseDegOneKCert(k int, label string) (degOneKCert, error) {
	prefix := fmt.Sprintf("K%d:", k)
	if !strings.HasPrefix(label, prefix) {
		return degOneKCert{}, fmt.Errorf("label (len=%d) is not a K%d certificate", len(label), k)
	}
	body := label[len(prefix):]
	switch body {
	case "B":
		return degOneKCert{kind: 'B'}, nil
	case "T":
		return degOneKCert{kind: 'T'}, nil
	}
	c, err := strconv.Atoi(body)
	if err != nil || c < 0 || c >= k {
		return degOneKCert{}, fmt.Errorf("label (len=%d) has no valid color", len(label))
	}
	return degOneKCert{kind: 'C', color: c}, nil
}

// refNeighbors returns the visible neighbors of mu's center in port order,
// skipping the -1 entries a gapped row carries.
func refNeighbors(mu *view.View) []int {
	var nbs []int
	for _, w := range mu.Ports.Rows[view.Center] {
		if w >= 0 {
			nbs = append(nbs, w)
		}
	}
	return nbs
}

func refDegOneKDecide(k int, mu *view.View) bool {
	own, err := refParseDegOneKCert(k, mu.Labels[view.Center])
	if err != nil {
		return false
	}
	nbs := refNeighbors(mu)
	certs := make([]degOneKCert, len(nbs))
	for i, w := range nbs {
		c, err := refParseDegOneKCert(k, mu.Labels[w])
		if err != nil {
			return false
		}
		certs[i] = c
	}
	switch own.kind {
	case 'B':
		return len(nbs) == 1 && certs[0].kind == 'T'
	case 'T':
		bottoms := 0
		seen := make(map[int]bool)
		for _, c := range certs {
			switch c.kind {
			case 'B':
				bottoms++
			case 'C':
				seen[c.color] = true
			default:
				return false
			}
		}
		return bottoms == 1 && len(seen) <= k-1
	default:
		tops := 0
		for _, c := range certs {
			switch c.kind {
			case 'T':
				tops++
				if tops > 1 {
					return false
				}
			case 'C':
				if c.color == own.color {
					return false
				}
			default:
				return false
			}
		}
		return true
	}
}

// TestDegreeOneKDecideMatchesReference compares DegreeOneK(k).Decide with
// the reference decoder on every radius-1 view of Star(4), Star(5), Path(3)
// and K4 under every labeling over the certificate alphabet plus four
// malformed labels (empty, another k's prefix, the out-of-range color k and
// a negative color), for k = 1..4: about 1.24 M views. Each view whose
// center has degree 2 or more is compared again with the center's port-1
// neighbor removed (withoutPortOne), as internal/sim assembles it when that
// neighbor crashed: about 0.33 M gapped views.
func TestDegreeOneKDecideMatchesReference(t *testing.T) {
	graphs := []*graph.Graph{graph.Star(4), graph.Star(5), graph.Path(3), graph.Complete(4)}
	views, gapped := 0, 0
	for k := 1; k <= 4; k++ {
		d := DegreeOneK(k).Decoder
		alphabet := append(DegOneKAlphabet(k), "", "K9:1", fmt.Sprintf("K%d:%d", k, k), fmt.Sprintf("K%d:-1", k))
		for _, g := range graphs {
			n := g.N()
			var ex view.Extractor
			tpls := make([]*view.Template, n)
			for v := range tpls {
				tpl, err := ex.Template(g, graph.DefaultPorts(g), nil, n, v, 1)
				if err != nil {
					t.Fatal(err)
				}
				tpls[v] = tpl
			}
			digits := make([]int, n)
			labels := make([]string, n)
			var scratch view.View
			for {
				for v, i := range digits {
					labels[v] = alphabet[i]
				}
				for v, tpl := range tpls {
					mu := tpl.InstantiateInto(&scratch, labels)
					if got, want := d.Decide(mu), refDegOneKDecide(k, mu); got != want {
						t.Fatalf("k=%d graph %v node %d labels %q: Decide = %v, reference = %v", k, g, v, labels, got, want)
					}
					views++
					if gap := withoutPortOne(mu); gap != nil {
						if got, want := d.Decide(gap), refDegOneKDecide(k, gap); got != want {
							t.Fatalf("k=%d graph %v node %d labels %q, port-1 neighbor gone: Decide = %v, reference = %v", k, g, v, labels, got, want)
						}
						gapped++
					}
				}
				// Next labeling in mixed-radix order.
				i := 0
				for ; i < n; i++ {
					digits[i]++
					if digits[i] < len(alphabet) {
						break
					}
					digits[i] = 0
				}
				if i == n {
					break
				}
			}
		}
	}
	if views != 1235336 {
		t.Errorf("compared %d views, want 1235336", views)
	}
	if gapped != 326498 {
		t.Errorf("compared %d gapped views, want 326498", gapped)
	}
}
