package sanitize

import "hidinglcp/internal/core"

// CheckScheme certifies every instance with the scheme's prover and
// evaluates the decoder at every node under the sanitizer — the
// core.CheckCompleteness loop with dynamic contract checking switched on.
// It returns the first completeness or validation error, or the folded
// contract violations.
func CheckScheme(s core.Scheme, insts []core.Instance, cfg Config) error {
	ss, res := WithScheme(s, cfg)
	for _, inst := range insts {
		if _, err := core.CheckCompleteness(ss, inst); err != nil {
			return err
		}
	}
	return res.Err()
}

// CheckLabeled evaluates the decoder on every node of every labeled
// instance under the sanitizer, ignoring the verdicts (adversarial
// labelings are allowed to be rejected) and returning only contract
// violations.
func CheckLabeled(d core.Decoder, labeled []core.Labeled, cfg Config) (*Result, error) {
	cfg, res := collecting(cfg)
	wrapped := Wrap(d, cfg)
	res.san = wrapped
	for _, l := range labeled {
		if _, err := core.Run(wrapped, l); err != nil {
			return res, err
		}
	}
	return res, nil
}

// InstrumentationProbes returns how many times the instrumented copy of the
// decoder has been invoked, i.e. how often the instrumentation-transparency
// probe actually ran.
func (s *Sanitizer) InstrumentationProbes() int64 { return s.instrProbes.Value() }
