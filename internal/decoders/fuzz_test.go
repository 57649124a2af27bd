package decoders_test

import (
	"testing"

	"hidinglcp/internal/core"
	"hidinglcp/internal/decoders"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/graph/graphtest"
	"hidinglcp/internal/sanitize"
)

// fuzzDecide decodes a graph6 string into a host graph, derives a labeling
// from the fuzzed bytes (mostly alphabet certificates, occasionally raw
// garbage so label parsing is exercised too), and runs the scheme's decoder
// at every node under the determinism sanitizer. The decoder must neither
// panic on any input nor violate the purity contract; accept/reject is
// unconstrained because the labeling is adversarial.
func fuzzDecide(f *testing.F, s core.Scheme, alphabet []string) {
	for _, g := range []*graph.Graph{graph.Path(2), graph.Path(4), graph.MustCycle(6), graph.Star(4)} {
		g6, err := graphtest.Graph6(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(g6, []byte{0, 1, 2, 3})
	}
	f.Fuzz(func(t *testing.T, g6 string, labelBytes []byte) {
		g, err := graphtest.ParseGraph6(g6)
		if err != nil || g.N() == 0 || g.N() > 16 {
			t.Skip()
		}
		labels := make([]string, g.N())
		for v := range labels {
			var b byte
			if len(labelBytes) > 0 {
				b = labelBytes[v%len(labelBytes)]
			}
			if b >= 0xf0 {
				labels[v] = string(labelBytes) // raw garbage certificate
			} else {
				labels[v] = alphabet[int(b)%len(alphabet)]
			}
		}
		l, err := core.NewLabeled(core.NewAnonymousInstance(g), labels)
		if err != nil {
			t.Skip()
		}
		san := sanitize.Wrap(s.Decoder, sanitize.Config{
			Report: func(v *sanitize.Violation) { t.Error(v) },
		})
		if _, err := core.Run(san, l); err != nil {
			t.Fatalf("running %s decoder: %v", s.Name, err)
		}
	})
}

func FuzzDegreeOneDecide(f *testing.F) {
	fuzzDecide(f, decoders.DegreeOne(), decoders.DegOneAlphabet())
}

func FuzzEvenCycleDecide(f *testing.F) {
	fuzzDecide(f, decoders.EvenCycle(), decoders.EvenCycleAlphabet())
}

func FuzzDegreeOneKDecide(f *testing.F) {
	fuzzDecide(f, decoders.DegreeOneK(3), decoders.DegOneKAlphabet(3))
}

func FuzzTrivialDecide(f *testing.F) {
	fuzzDecide(f, decoders.Trivial(3), []string{"0", "1", "2"})
}

func FuzzUnionDecide(f *testing.F) {
	fuzzDecide(f, decoders.Union(), append(decoders.DegOneAlphabet(), decoders.EvenCycleAlphabet()...))
}

// fuzzDecideWithIDs is fuzzDecide for the non-anonymous schemes: instances
// carry sequential identifiers, and certificates are synthesized from the
// fuzzed bytes through the scheme's own label constructors (so the decoder
// sees well-formed-but-wrong certificates, not just noise) with raw garbage
// mixed in for the parsing paths.
func fuzzDecideWithIDs(f *testing.F, s core.Scheme, label func(b byte, nBound int) string) {
	// Seeds include the P8/P7 paths of the paper's shatter hiding pair and
	// a theta graph from the watermelon family.
	for _, g := range []*graph.Graph{graph.Path(8), graph.Path(7), graph.MustCycle(6), graph.MustWatermelon([]int{2, 4, 2})} {
		g6, err := graphtest.Graph6(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(g6, []byte{0, 1, 2, 3, 0x42, 0x99})
	}
	f.Fuzz(func(t *testing.T, g6 string, labelBytes []byte) {
		g, err := graphtest.ParseGraph6(g6)
		if err != nil || g.N() == 0 || g.N() > 16 {
			t.Skip()
		}
		inst := core.NewInstance(g)
		labels := make([]string, g.N())
		for v := range labels {
			var b byte
			if len(labelBytes) > 0 {
				b = labelBytes[v%len(labelBytes)]
			}
			if b >= 0xf0 {
				labels[v] = string(labelBytes) // raw garbage certificate
			} else {
				labels[v] = label(b, inst.NBound)
			}
		}
		l, err := core.NewLabeled(inst, labels)
		if err != nil {
			t.Skip()
		}
		san := sanitize.Wrap(s.Decoder, sanitize.Config{
			Report: func(v *sanitize.Violation) { t.Error(v) },
		})
		if _, err := core.Run(san, l); err != nil {
			t.Fatalf("running %s decoder: %v", s.Name, err)
		}
	})
}

func shatterLabelFromByte(b byte, nBound int) string {
	id := int(b>>4)%nBound + 1
	colors := []int{int(b) % 2, int(b>>1) % 2}
	switch b % 4 {
	case 0:
		return decoders.ShatterPointLabel(id, colors)
	case 1:
		return decoders.ShatterPointLabelLiteral(id)
	case 2:
		return decoders.ShatterNeighborLabel(id, colors)
	default:
		return decoders.ShatterCompLabel(id, int(b>>2)%3+1, int(b)%2)
	}
}

func watermelonLabelFromByte(b byte, nBound int) string {
	id1 := int(b)%nBound + 1
	id2 := int(b>>3)%nBound + 1
	if b%2 == 0 {
		return decoders.WatermelonEndpointLabel(id1, id2)
	}
	return decoders.WatermelonPathLabel(id1, id2, int(b>>2)%4+1, int(b)%2, int(b>>1)%2, int(b>>2)%2, int(b>>3)%2)
}

func FuzzShatterDecide(f *testing.F) {
	fuzzDecideWithIDs(f, decoders.Shatter(), shatterLabelFromByte)
}

func FuzzWatermelonDecide(f *testing.F) {
	fuzzDecideWithIDs(f, decoders.Watermelon(), watermelonLabelFromByte)
}

// TestHidingPairsSanitized runs the sanitizer-wrapped decoders over the
// paper's hiding instances themselves — the certificates the fuzzers are
// seeded around — so a determinism violation on the canonical inputs fails
// fast instead of depending on fuzzer luck.
func TestHidingPairsSanitized(t *testing.T) {
	shatterL1, shatterL2 := decoders.ShatterHidingPair()
	melonFam, err := decoders.WatermelonHidingFamily()
	if err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		s     core.Scheme
		pairs []core.Labeled
	}{
		{decoders.Shatter(), []core.Labeled{shatterL1, shatterL2}},
		{decoders.ShatterLiteral(), []core.Labeled{shatterL1, shatterL2}},
		{decoders.Watermelon(), melonFam},
	}
	for _, r := range runs {
		san := sanitize.Wrap(r.s.Decoder, sanitize.Config{
			Report: func(v *sanitize.Violation) { t.Errorf("%s: %v", r.s.Name, v) },
		})
		for _, l := range r.pairs {
			if _, err := core.Run(san, l); err != nil {
				t.Fatalf("%s on %v: %v", r.s.Name, l.G, err)
			}
		}
	}
}
