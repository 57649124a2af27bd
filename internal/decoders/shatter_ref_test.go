package decoders

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"hidinglcp/internal/core"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/view"
)

// refShatterCert, refParseShatterCert and refShatterDecide are the
// straightforward Shatter parser and decoder: split the label on ':', parse
// the fields with strconv.Atoi and the color vector into a fresh slice, and
// parse every neighbour certificate into a slice first.
// TestParseShatterCertMatchesReference and TestShatterDecideMatchesReference
// hold the in-place parser and the streaming decoder to them.
type refShatterCert struct {
	typ    int
	id     int
	colors []int
	comp   int
	x      int
}

func refParseShatterCert(label string) (refShatterCert, error) {
	var c refShatterCert
	parts := strings.Split(label, ":")
	switch parts[0] {
	case "S0", "S1":
		if len(parts) != 3 {
			return c, fmt.Errorf("type S0/S1 wants 2 fields, got %d", len(parts)-1)
		}
		id, err := strconv.Atoi(parts[1])
		if err != nil || id < 1 {
			return c, fmt.Errorf("bad identifier")
		}
		colors := make([]int, len(parts[2]))
		for i, ch := range parts[2] {
			switch ch {
			case '0':
				colors[i] = 0
			case '1':
				colors[i] = 1
			default:
				return c, fmt.Errorf("bad color vector")
			}
		}
		typ := 0
		if parts[0] == "S1" {
			typ = 1
		}
		return refShatterCert{typ: typ, id: id, colors: colors}, nil
	case "S2":
		if len(parts) != 4 {
			return c, fmt.Errorf("type 2 wants 3 fields, got %d", len(parts)-1)
		}
		vals, err := refParseInts(strings.Join(parts[1:], ":"), ":")
		if err != nil {
			return c, err
		}
		if vals[0] < 1 || vals[1] < 1 || (vals[2] != 0 && vals[2] != 1) {
			return c, fmt.Errorf("fields out of range")
		}
		return refShatterCert{typ: 2, id: vals[0], comp: vals[1], x: vals[2]}, nil
	default:
		return c, fmt.Errorf("unknown type")
	}
}

func refEqualInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func refShatterDecide(literal bool, mu *view.View) bool {
	center := view.Center
	own, err := refParseShatterCert(mu.Labels[center])
	if err != nil {
		return false
	}
	nbs := refNeighbors(mu)
	certs := make([]refShatterCert, len(nbs))
	for i, w := range nbs {
		c, err := refParseShatterCert(mu.Labels[w])
		if err != nil {
			return false
		}
		certs[i] = c
	}
	switch own.typ {
	case 0:
		if own.id != mu.IDs[center] {
			return false
		}
		for i, w := range nbs {
			if certs[i].typ != 1 || certs[i].id != own.id {
				return false
			}
			if mu.Labels[w] != mu.Labels[nbs[0]] {
				return false
			}
		}
		return true
	case 1:
		shatters := 0
		for i, w := range nbs {
			switch certs[i].typ {
			case 1:
				return false
			case 0:
				shatters++
				if certs[i].id != own.id {
					return false
				}
				if !literal {
					if mu.IDs[w] != own.id {
						return false
					}
					if !refEqualInts(certs[i].colors, own.colors) {
						return false
					}
				}
			case 2:
				if certs[i].id != own.id {
					return false
				}
				if certs[i].comp > len(own.colors) {
					return false
				}
				if own.colors[certs[i].comp-1] != certs[i].x {
					return false
				}
			}
		}
		return shatters == 1
	default:
		for i := range nbs {
			switch certs[i].typ {
			case 0:
				return false
			case 1:
				if certs[i].id != own.id {
					return false
				}
				if own.comp > len(certs[i].colors) {
					return false
				}
				if certs[i].colors[own.comp-1] != own.x {
					return false
				}
			case 2:
				if certs[i].id != own.id || certs[i].comp != own.comp || certs[i].x == own.x {
					return false
				}
			}
		}
		return true
	}
}

// TestParseShatterCertMatchesReference compares parseShatterCert with the
// reference parser on 200,000 random labels: all three type prefixes (and
// near misses) with either layout, number fields from certFields and color
// vectors with and without bad bytes.
func TestParseShatterCertMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	prefixes := []string{"S0:", "S1:", "S2:", "S0:", "S1:", "S2:", "S3:", "S:", "S1", "s2:", "W1:", ""}
	vectors := []string{"", "0", "1", "01", "10", "110", "012", "0a", "é", "0:1"}
	small := []string{"0", "1", "2", "3"}
	accepted := 0
	for trial := 0; trial < 200000; trial++ {
		fields := certFields
		if trial%2 == 0 {
			fields = small
		}
		var l string
		if rng.Intn(2) == 0 {
			l = randomCert(rng, prefixes, "::", fields)
		} else {
			l = randomCert(rng, prefixes, ":", fields)
			if rng.Intn(4) != 0 {
				// Replace the last field by a color vector.
				l = l[:strings.LastIndexByte(l, ':')+1] + vectors[rng.Intn(len(vectors))]
			}
		}
		got, ok := parseShatterCert(l)
		want, err := refParseShatterCert(l)
		if ok != (err == nil) {
			t.Fatalf("label %q: parseShatterCert ok = %v, reference err = %v", l, ok, err)
		}
		if !ok {
			continue
		}
		accepted++
		colors := make([]int, len(got.colors))
		for i := range colors {
			colors[i] = got.color(i)
		}
		if got.typ != want.typ || got.id != want.id || got.comp != want.comp || got.x != want.x || !refEqualInts(colors, want.colors) {
			t.Fatalf("label %q: parseShatterCert = %+v, reference = %+v", l, got, want)
		}
	}
	if accepted < 1000 {
		t.Errorf("only %d of the labels parse; the corpus misses the accepting paths", accepted)
	}
}

// shatterAlphabet returns the certified labels, their variants (another
// identifier, vector, component or color; the literal type-0 form) and a
// few malformed labels.
func shatterAlphabet(labels []string) []string {
	out := []string{"", "junk", "S0:1:012", "S1:+1:0", "S2:1:1:-0", "S2:1:9:1"}
	seen := map[string]bool{}
	add := func(l string) {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	for _, l := range labels {
		c, ok := parseShatterCert(l)
		if !ok {
			continue
		}
		add(l)
		switch c.typ {
		case 0, 1:
			flipped := make([]int, len(c.colors))
			for i := range flipped {
				flipped[i] = 1 - c.color(i)
			}
			add(fmt.Sprintf("S%d:%d:%s", c.typ, c.id, colorBits(flipped)))
			add(fmt.Sprintf("S%d:%d:%s", c.typ, c.id+1, c.colors))
			add(fmt.Sprintf("S%d:%d:%s", 1-c.typ, c.id, c.colors))
			add(ShatterPointLabelLiteral(c.id))
		default:
			add(ShatterCompLabel(c.id, c.comp, 1-c.x))
			add(ShatterCompLabel(c.id, c.comp+1, c.x))
			add(ShatterCompLabel(c.id+1, c.comp, c.x))
		}
	}
	return out
}

// TestShatterDecideMatchesReference compares the patched and the literal
// Shatter decoders with the reference decoder on the radius-1 views of six
// graphs with shatter points, around the prover's certificates and
// shatterAlphabet's variants of them, and on each such view with the
// center's port-1 neighbor removed (withoutPortOne).
func TestShatterDecideMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	graphs := []*graph.Graph{
		graph.Path(5), graph.Path(7), graph.Path(8), graph.Spider([]int{2, 2, 2}),
		graph.Grid(3, 3), graph.CompleteBinaryTree(3),
	}
	for _, literal := range []bool{false, true} {
		s := shatterScheme(literal)
		ref := func(mu *view.View) bool { return refShatterDecide(literal, mu) }
		views, gapped, accepted := 0, 0, 0
		for _, g := range graphs {
			inst := core.NewInstance(g)
			labels, err := s.Prover.Certify(inst)
			if err != nil {
				t.Fatal(err)
			}
			v, gp, a := diffDecide(t, s.Decoder, ref, inst, labels, shatterAlphabet(labels), rng, 2000)
			views += v
			gapped += gp
			accepted += a
		}
		if accepted*10 < views {
			t.Errorf("%s: Decide accepted %d of %d views; the corpus misses the accepting paths", s.Name, accepted, views)
		}
		if gapped == 0 {
			t.Errorf("%s: no view with a gapped center row was compared", s.Name)
		}
		t.Logf("%s: compared %d views, %d accepted, and %d gapped views", s.Name, views, accepted, gapped)
	}
}
