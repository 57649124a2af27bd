// Package orderinv implements the Section 6 machinery: the finite slice of
// Ramsey's theorem (Lemma 6.1) and the Balliu-et-al-style reduction of
// Lemma 6.2 that converts an identifier-value-dependent decoder with
// constant-size certificates into an order-invariant one with the same
// behaviour on a monochromatic identifier universe.
//
// The paper invokes the infinite Ramsey theorem; the reduction only ever
// uses a monochromatic set large enough to relabel one neighborhood, so the
// finite search implemented here demonstrates and tests the mechanism
// end-to-end.
package orderinv

import (
	"fmt"
	"sort"
	"strings"

	"hidinglcp/internal/core"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/view"
)

// MonochromaticSubset searches for a size-t subset Y of universe such that
// every size-s subset of Y receives the same color. The color function gets
// subsets sorted ascending. It returns the subset and the common color, or
// nil and "" when none exists. Brute force over C(|universe|, t) subsets;
// keep the universe small.
func MonochromaticSubset(universe []int, s, t int, color func([]int) string) ([]int, string) {
	sorted := append([]int(nil), universe...)
	sort.Ints(sorted)
	var found []int
	var foundColor string
	graph.Combinations(len(sorted), t, func(idx []int) bool {
		y := make([]int, t)
		for i, j := range idx {
			y[i] = sorted[j]
		}
		common := ""
		ok := true
		graph.Combinations(t, s, func(sub []int) bool {
			subset := make([]int, s)
			for i, j := range sub {
				subset[i] = y[j]
			}
			c := color(subset)
			if common == "" {
				common = c
			} else if common != c {
				ok = false
				return false
			}
			return true
		})
		if ok && common != "" {
			found = y
			foundColor = common
			return false
		}
		return true
	})
	return found, foundColor
}

// VerifyRamsey33 checks the classical finite instance R(3,3) = 6: every
// 2-coloring of the edges of K6 contains a monochromatic triangle, while K5
// admits a triangle-free 2-coloring. It returns an error if either half
// fails (which would indicate a search bug).
func VerifyRamsey33() error {
	// Every 2-coloring of E(K6) (2^15) has a monochromatic triangle.
	pairs := pairList(6)
	for mask := 0; mask < 1<<len(pairs); mask++ {
		if !hasMonoTriangle(6, pairs, mask) {
			return fmt.Errorf("K6 coloring %b has no monochromatic triangle", mask)
		}
	}
	// The pentagon-plus-pentagram coloring of K5 has none.
	pairs5 := pairList(5)
	mask := 0
	for i, p := range pairs5 {
		d := (p[1] - p[0] + 5) % 5
		if d == 1 || d == 4 {
			mask |= 1 << i
		}
	}
	if hasMonoTriangle(5, pairs5, mask) {
		return fmt.Errorf("pentagon witness coloring of K5 unexpectedly has a monochromatic triangle")
	}
	return nil
}

func pairList(n int) [][2]int {
	var out [][2]int
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			out = append(out, [2]int{a, b})
		}
	}
	return out
}

// hasMonoTriangle reports whether the 2-coloring of E(K_n) that gives
// pairs[i] color bit i of mask has a monochromatic triangle; n <= 6.
func hasMonoTriangle(n int, pairs [][2]int, mask int) bool {
	var color [6][6]int
	for i, p := range pairs {
		color[p[0]][p[1]] = (mask >> i) & 1
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for c := b + 1; c < n; c++ {
				x := color[a][b]
				if x == color[a][c] && x == color[b][c] {
					return true
				}
			}
		}
	}
	return false
}

// Template is one entry of the finite structure catalog over which decoder
// types (the F(S) of Lemma 6.2) are computed: a labeled instance skeleton
// together with a rank assignment saying which sorted position of an
// identifier set each node receives.
type Template struct {
	L      core.Labeled
	Center int
	// RankOf[v] is the 1-based sorted position of the identifier given to
	// node v when the template is instantiated with an identifier set.
	RankOf []int
}

// Slots returns the number of identifiers a template consumes.
func (t Template) Slots() int {
	max := 0
	for _, r := range t.RankOf {
		if r > max {
			max = r
		}
	}
	return max
}

// PathTemplates builds a catalog from a labeled path skeleton: one template
// per (center, rank permutation) pair over the path's nodes. It is the
// workhorse catalog for the Lemma 6.2 demonstration.
func PathTemplates(n int, labels []string, r int) ([]Template, error) {
	if len(labels) != n {
		return nil, fmt.Errorf("want %d labels, got %d", n, len(labels))
	}
	g := graph.Path(n)
	inst := core.Instance{G: g, Prt: graph.DefaultPorts(g), NBound: n}
	l, err := core.NewLabeled(inst, labels)
	if err != nil {
		return nil, err
	}
	var out []Template
	perms := permutations(n)
	for center := 0; center < n; center++ {
		for _, p := range perms {
			rank := make([]int, n)
			for v, x := range p {
				rank[v] = x + 1
			}
			out = append(out, Template{L: l, Center: center, RankOf: rank})
		}
	}
	return out, nil
}

func permutations(k int) [][]int {
	base := make([]int, k)
	for i := range base {
		base[i] = i
	}
	var out [][]int
	var rec func(i int)
	rec = func(i int) {
		if i == k {
			out = append(out, append([]int(nil), base...))
			return
		}
		for j := i; j < k; j++ {
			base[i], base[j] = base[j], base[i]
			rec(i + 1)
			base[i], base[j] = base[j], base[i]
		}
	}
	rec(0)
	return out
}

// TypeOf computes the decoder's type on an identifier set: the output
// vector over the catalog when the set instantiates each template in sorted
// order (the node of rank k gets the k-th smallest identifier, and N is
// raised to the largest one). Two sets with equal types are
// indistinguishable to the decoder across the catalog — exactly the
// coloring Lemma 6.2 feeds to Ramsey. Each entry's center view is built
// into one reused template and view and decided once, so past the first
// entry the call allocates only when a larger host graph comes along.
func TypeOf(d core.Decoder, catalog []Template, ids []int) (string, error) {
	sorted := append([]int(nil), ids...)
	sort.Ints(sorted)
	var (
		ex       view.Extractor
		t        view.Template
		mu       view.View
		assigned graph.IDs
		b        strings.Builder
	)
	b.Grow(len(catalog))
	for i, tpl := range catalog {
		if len(sorted) < tpl.Slots() {
			return "", fmt.Errorf("template %d: needs %d identifiers, got %d", i, tpl.Slots(), len(sorted))
		}
		assigned = assigned[:0]
		for v, rank := range tpl.RankOf {
			if rank < 1 {
				return "", fmt.Errorf("template %d: node %d has invalid rank %d", i, v, rank)
			}
			assigned = append(assigned, sorted[rank-1])
		}
		vids := assigned
		if d.Anonymous() {
			vids = nil
		}
		nBound := max(sorted[len(sorted)-1], tpl.L.NBound)
		if err := ex.TemplateInto(&t, tpl.L.G, tpl.L.Prt, vids, nBound, tpl.Center, d.Rounds(), nil); err != nil {
			return "", fmt.Errorf("template %d: %w", i, err)
		}
		if d.Decide(t.InstantiateInto(&mu, tpl.L.Labels)) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String(), nil
}

// MonochromaticIDs finds a size-t identifier subset of the universe on
// which the decoder's type is constant across all size-s subsets (s = the
// catalog's slot count). It returns the subset and the common type.
func MonochromaticIDs(d core.Decoder, catalog []Template, universe []int, t int) ([]int, string, error) {
	s := 0
	for _, tpl := range catalog {
		if k := tpl.Slots(); k > s {
			s = k
		}
	}
	if t < s {
		return nil, "", fmt.Errorf("target size %d smaller than slot count %d", t, s)
	}
	var innerErr error
	y, typ := MonochromaticSubset(universe, s, t, func(sub []int) string {
		key, err := TypeOf(d, catalog, sub)
		if err != nil {
			innerErr = err
			return "<error>"
		}
		return key
	})
	if innerErr != nil {
		return nil, "", innerErr
	}
	if y == nil {
		return nil, "", fmt.Errorf("no monochromatic identifier set of size %d in universe of %d", t, len(universe))
	}
	return y, typ, nil
}
