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

// refParseInts, refParseMelonCert and refWatermelonDecide are the
// straightforward Watermelon parser and decoder: split the label on its
// separators, parse each field with strconv.Atoi, parse every neighbour
// certificate into a map first and track path numbers in a map.
// TestParseMelonCertMatchesReference and TestWatermelonDecideMatchesReference
// hold the in-place parser and the streaming decoder to them.
func refParseInts(s, sep string) ([]int, error) {
	parts := strings.Split(s, sep)
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("field %d (len=%d) is not a non-negative integer", i, len(p))
		}
		out[i] = v
	}
	return out, nil
}

func refParseMelonCert(label string) (melonCert, error) {
	var c melonCert
	parts := strings.Split(label, ":")
	switch parts[0] {
	case "W1":
		if len(parts) != 3 {
			return c, fmt.Errorf("type 1 wants 2 fields, got %d", len(parts)-1)
		}
		ids, err := refParseInts(strings.Join(parts[1:], ":"), ":")
		if err != nil {
			return c, err
		}
		c.typ, c.id1, c.id2 = 1, ids[0], ids[1]
		if c.id1 < 1 || c.id2 <= c.id1 {
			return c, fmt.Errorf("endpoint ids out of order")
		}
		return c, nil
	case "W2":
		if len(parts) != 6 {
			return c, fmt.Errorf("type 2 wants 5 fields, got %d", len(parts)-1)
		}
		head, err := refParseInts(strings.Join(parts[1:4], ":"), ":")
		if err != nil {
			return c, err
		}
		c.typ, c.id1, c.id2, c.path = 2, head[0], head[1], head[2]
		if c.id1 < 1 || c.id2 <= c.id1 || c.path < 1 {
			return c, fmt.Errorf("header fields out of range")
		}
		for j := 1; j <= 2; j++ {
			entry, err := refParseInts(parts[3+j], ",")
			if err != nil || len(entry) != 2 {
				return c, fmt.Errorf("malformed edge entry %d", j)
			}
			if entry[0] < 1 {
				return c, fmt.Errorf("far port out of range")
			}
			if entry[1] != 0 && entry[1] != 1 {
				return c, fmt.Errorf("color out of range")
			}
			c.farPort[j], c.color[j] = entry[0], entry[1]
		}
		if c.color[1] == c.color[2] {
			return c, fmt.Errorf("equal incident edge colors")
		}
		return c, nil
	default:
		return c, fmt.Errorf("unknown watermelon certificate type")
	}
}

func refWatermelonDecide(mu *view.View) bool {
	center := view.Center
	own, err := refParseMelonCert(mu.Labels[center])
	if err != nil {
		return false
	}
	nbs := refNeighbors(mu)
	certs := make(map[int]melonCert, len(nbs))
	for _, w := range nbs {
		c, err := refParseMelonCert(mu.Labels[w])
		if err != nil {
			return false
		}
		if c.id1 != own.id1 || c.id2 != own.id2 {
			return false
		}
		certs[w] = c
	}
	if own.typ == 1 {
		if mu.IDs[center] != own.id1 && mu.IDs[center] != own.id2 {
			return false
		}
		pathsSeen := make(map[int]bool, len(nbs))
		edgeColor := -1
		for _, w := range nbs {
			c := certs[w]
			if c.typ != 2 {
				return false
			}
			j, ok := mu.Port(w, center)
			if !ok || j < 1 || j > 2 {
				return false
			}
			myPort, ok := mu.Port(center, w)
			if !ok || c.farPort[j] != myPort {
				return false
			}
			if pathsSeen[c.path] {
				return false
			}
			pathsSeen[c.path] = true
			if edgeColor == -1 {
				edgeColor = c.color[j]
			} else if edgeColor != c.color[j] {
				return false
			}
		}
		return true
	}
	if len(nbs) != 2 {
		return false
	}
	for _, w := range nbs {
		i, ok := mu.Port(center, w)
		if !ok || (i != 1 && i != 2) {
			return false
		}
		far, ok := mu.Port(w, center)
		if !ok || own.farPort[i] != far {
			return false
		}
		c := certs[w]
		switch c.typ {
		case 1:
			if mu.IDs[w] != own.id1 && mu.IDs[w] != own.id2 {
				return false
			}
		case 2:
			if c.path != own.path {
				return false
			}
			j := own.farPort[i]
			if j < 1 || j > 2 {
				return false
			}
			if c.farPort[j] != i || c.color[j] != own.color[i] {
				return false
			}
		}
	}
	return true
}

// certFields are the field values the parser corpora draw from: numbers in
// and out of range, signs, leading zeros, int overflow and junk.
var certFields = []string{
	"", "0", "1", "2", "3", "7", "01", "+1", "+0", "-0", "-1", "--1", "+",
	"x", "1x", " 1", "1_0", "9223372036854775807", "9223372036854775808",
	"-9223372036854775808", "99999999999999999999",
}

// randomCert draws a label: one of prefixes, then len(seps)+1 fields from
// fields joined by seps — with a separator swapped, a field dropped or one
// added now and then, so the field-count checks are exercised too.
func randomCert(rng *rand.Rand, prefixes []string, seps string, fields []string) string {
	var b strings.Builder
	b.WriteString(prefixes[rng.Intn(len(prefixes))])
	nf := len(seps) + 1
	switch rng.Intn(10) {
	case 0:
		nf--
	case 1:
		nf++
	}
	for k := 0; k < nf; k++ {
		if k > 0 {
			sep := byte(':')
			if k-1 < len(seps) {
				sep = seps[k-1]
			}
			if rng.Intn(20) == 0 {
				sep = ":,;"[rng.Intn(3)]
			}
			b.WriteByte(sep)
		}
		b.WriteString(fields[rng.Intn(len(fields))])
	}
	return b.String()
}

// TestParseMelonCertMatchesReference compares parseMelonCert with the
// reference parser on 200,000 random labels: both type prefixes (and near
// misses) with either type's field layout, fields from certFields (mostly
// small numbers, so many labels parse).
func TestParseMelonCertMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	prefixes := []string{"W1:", "W2:", "W1:", "W2:", "W3:", "W:", "W1", "w2:", "S0:", ""}
	small := []string{"0", "1", "2", "3"}
	accepted := 0
	for trial := 0; trial < 200000; trial++ {
		fields := certFields
		if trial%2 == 0 {
			fields = small
		}
		seps := ":"
		if rng.Intn(2) == 0 {
			seps = ":::,:,"
		}
		l := randomCert(rng, prefixes, seps, fields)
		got, ok := parseMelonCert(l)
		want, err := refParseMelonCert(l)
		if ok != (err == nil) || (ok && got != want) {
			t.Fatalf("label %q: parseMelonCert = %+v, %v; reference = %+v, %v", l, got, ok, want, err)
		}
		if ok {
			accepted++
		}
	}
	if accepted < 1000 {
		t.Errorf("only %d of the labels parse; the corpus misses the accepting paths", accepted)
	}
}

// diffDecide compares d with ref on every radius-1 view of inst under the
// labeling labels, under every labeling that replaces one node's label by
// an alphabet entry, and under trials random labelings that keep each
// node's label with probability 1/2 and draw it from the alphabet
// otherwise. It returns the number of views compared and how many of them
// d accepted.
func diffDecide(t *testing.T, d core.Decoder, ref func(*view.View) bool, inst core.Instance, labels, alphabet []string, rng *rand.Rand, trials int) (views, gapped, accepted int) {
	t.Helper()
	n := inst.G.N()
	var ex view.Extractor
	tpls := make([]*view.Template, n)
	for v := range tpls {
		tpl, err := ex.Template(inst.G, inst.Prt, inst.IDs, inst.NBound, v, 1)
		if err != nil {
			t.Fatal(err)
		}
		tpls[v] = tpl
	}
	var scratch view.View
	check := func(ls []string) {
		for v, tpl := range tpls {
			mu := tpl.InstantiateInto(&scratch, ls)
			got := d.Decide(mu)
			if want := ref(mu); got != want {
				t.Fatalf("graph %v node %d labels %q: Decide = %v, reference = %v", inst.G, v, ls, got, want)
			}
			views++
			if got {
				accepted++
			}
			if gap := withoutPortOne(mu); gap != nil {
				if got, want := d.Decide(gap), ref(gap); got != want {
					t.Fatalf("graph %v node %d labels %q, port-1 neighbor gone: Decide = %v, reference = %v", inst.G, v, ls, got, want)
				}
				gapped++
			}
		}
	}
	ls := append([]string(nil), labels...)
	check(ls)
	for v := range ls {
		for _, a := range alphabet {
			ls[v] = a
			check(ls)
		}
		ls[v] = labels[v]
	}
	for trial := 0; trial < trials; trial++ {
		for v := range ls {
			ls[v] = labels[v]
			if rng.Intn(2) == 0 {
				ls[v] = alphabet[rng.Intn(len(alphabet))]
			}
		}
		check(ls)
	}
	return views, gapped, accepted
}

// withoutPortOne returns the radius-1 view mu as internal/sim assembles it
// when the center's neighbor behind port 1 crashed before speaking: that
// node is gone and the center's row keeps a -1 at port 1, a gap before its
// larger ports. It returns nil unless the center has an edge behind port 1
// and one behind a larger port.
func withoutPortOne(mu *view.View) *view.View {
	row := mu.Ports.Rows[view.Center]
	if mu.Radius != 1 || len(row) < 2 || row[0] < 0 {
		return nil
	}
	x := row[0]
	gap := &view.View{Radius: 1, NBound: mu.NBound, Ports: &view.PortRows{}}
	for i := range mu.Dist {
		if i == x {
			continue
		}
		gap.Dist = append(gap.Dist, mu.Dist[i])
		gap.IDs = append(gap.IDs, mu.IDs[i])
		gap.Labels = append(gap.Labels, mu.Labels[i])
		var nrow []int
		for _, w := range mu.Ports.Rows[i] {
			switch {
			case w == x:
				w = -1
			case w > x:
				w--
			}
			nrow = append(nrow, w)
		}
		gap.Ports.Rows = append(gap.Ports.Rows, nrow)
	}
	return gap
}

// melonAlphabet returns the certified labels, their variants (colors
// flipped, path number moved, far ports swapped or out of range, endpoint
// identifiers changed) and a few malformed labels.
func melonAlphabet(labels []string) []string {
	out := []string{"", "junk", "W1:+1:0003", "W2:1:5:1:1,0:1,0", "W2:-0:5:1:1,0:2,1"}
	seen := map[string]bool{}
	add := func(l string) {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	for _, l := range labels {
		c, ok := parseMelonCert(l)
		if !ok {
			continue
		}
		add(l)
		if c.typ == 1 {
			add(WatermelonEndpointLabel(c.id1, c.id2+1))
			add(WatermelonEndpointLabel(c.id1+1, c.id2+2))
			continue
		}
		q, col := c.farPort, c.color
		add(WatermelonPathLabel(c.id1, c.id2, c.path, q[1], 1-col[1], q[2], 1-col[2]))
		add(WatermelonPathLabel(c.id1, c.id2, c.path+1, q[1], col[1], q[2], col[2]))
		add(WatermelonPathLabel(c.id1, c.id2, c.path, q[2], col[1], q[1], col[2]))
		add(WatermelonPathLabel(c.id1, c.id2, c.path, 3, col[1], q[2], col[2]))
		add(WatermelonPathLabel(c.id1, c.id2+1, c.path, q[1], col[1], q[2], col[2]))
	}
	return out
}

// TestWatermelonDecideMatchesReference compares the Watermelon decoder with
// the reference decoder on the radius-1 views of four watermelons under
// every port assignment (the far-port checks read the ports), around the
// prover's certificates and melonAlphabet's variants of them, and on each
// such view with the center's port-1 neighbor removed (withoutPortOne).
func TestWatermelonDecideMatchesReference(t *testing.T) {
	s := Watermelon()
	rng := rand.New(rand.NewSource(2))
	views, gapped, accepted := 0, 0, 0
	for _, paths := range [][]int{{2, 2}, {2, 4}, {3, 3}, {2, 2, 2}} {
		g := graph.MustWatermelon(paths)
		graph.EnumPorts(g, func(pt *graph.Ports) bool {
			inst := core.NewInstance(g)
			inst.Prt = pt
			labels, err := s.Prover.Certify(inst)
			if err != nil {
				t.Fatal(err)
			}
			v, gp, a := diffDecide(t, s.Decoder, refWatermelonDecide, inst, labels, melonAlphabet(labels), rng, 20)
			views += v
			gapped += gp
			accepted += a
			return true
		})
	}
	if accepted*10 < views {
		t.Errorf("Decide accepted %d of %d views; the corpus misses the accepting paths", accepted, views)
	}
	if gapped == 0 {
		t.Error("no view with a gapped center row was compared")
	}
	t.Logf("compared %d views, %d accepted, and %d gapped views", views, accepted, gapped)
}
