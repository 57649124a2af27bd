package decoders

import "testing"

// TestSchemeByName checks every registry entry, which engine.Registry
// resolves by name, builds a complete scheme.
func TestSchemeByName(t *testing.T) {
	for _, e := range Schemes() {
		if e.Name == "" || e.New == nil {
			t.Errorf("registry entry %+v has no name or constructor", e)
			continue
		}
		s := e.New()
		if s.Decoder == nil || s.Prover == nil {
			t.Errorf("scheme %q incomplete", e.Name)
		}
	}
}

// TestAlphabetFor checks the sweep alphabets: every scheme with
// identifier-free certificates has a non-empty alphabet without repeats;
// shatter and watermelon embed identifiers and have none.
func TestAlphabetFor(t *testing.T) {
	finite := map[string]bool{
		"trivial": true, "trivial3": true, "degree-one": true,
		"even-cycle": true, "union": true,
	}
	for _, e := range Schemes() {
		if !finite[e.Name] {
			if e.Alphabet != nil {
				t.Errorf("scheme %q has an alphabet; want none (identifier-dependent certificates)", e.Name)
			}
			continue
		}
		if e.Alphabet == nil {
			t.Errorf("scheme %q has no alphabet", e.Name)
			continue
		}
		alphabet := e.Alphabet()
		if len(alphabet) == 0 {
			t.Errorf("scheme %q: empty alphabet", e.Name)
		}
		seen := map[string]bool{}
		for _, c := range alphabet {
			if seen[c] {
				t.Errorf("scheme %q: certificate %q repeats in the alphabet", e.Name, c)
			}
			seen[c] = true
		}
	}
}

func TestSchemeNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Schemes() {
		n := e.Name
		if seen[n] {
			t.Errorf("duplicate scheme name %q", n)
		}
		seen[n] = true
	}
}
