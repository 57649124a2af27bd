package decoders

import "hidinglcp/internal/core"

// SchemeEntry is one named scheme in the registry: the constructor plus the
// certificate alphabet its exhaustive strong-soundness sweeps range over.
// Alphabet is nil for schemes whose certificates embed identifiers
// (shatter, watermelon) — they have no finite instance-independent alphabet.
type SchemeEntry struct {
	// Name is the identifier the CLIs accept (-scheme).
	Name string
	// New constructs the scheme.
	New func() core.Scheme
	// Alphabet returns the sweep alphabet, including a garbage symbol
	// where the well-formed alphabet alone would make the search vacuous.
	Alphabet func() []string
}

// Schemes is the one scheme table behind every CLI and registry: each entry
// names a scheme of the paper and how to build it. The engine layer
// (internal/engine) wraps this into its Registry; nothing else should
// duplicate the name → constructor mapping.
func Schemes() []SchemeEntry {
	return []SchemeEntry{
		{"trivial", func() core.Scheme { return Trivial(2) }, func() []string { return []string{"0", "1", "x"} }},
		{"trivial3", func() core.Scheme { return Trivial(3) }, func() []string { return []string{"0", "1", "2", "x"} }},
		{"degree-one", DegreeOne, DegOneAlphabet},
		{"even-cycle", EvenCycle, EvenCycleAlphabet},
		{"union", Union, func() []string { return append(DegOneAlphabet(), EvenCycleAlphabet()...) }},
		{"shatter", Shatter, nil},
		{"shatter-literal", ShatterLiteral, nil},
		{"watermelon", Watermelon, nil},
	}
}
