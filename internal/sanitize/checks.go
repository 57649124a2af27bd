package sanitize

import (
	"errors"
	"fmt"

	"hidinglcp/internal/core"
)

// Result collects the outcome of a sanitized run.
type Result struct {
	san *Sanitizer
	// Violations holds every detected contract breach, in detection order.
	Violations []*Violation
}

// Decisions is the number of Decide calls probed.
func (r *Result) Decisions() int {
	if r.san == nil {
		return 0
	}
	return r.san.Decisions()
}

// Err folds the violations into one error, or nil when the run was clean.
func (r *Result) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	errs := make([]error, len(r.Violations))
	for i, v := range r.Violations {
		errs[i] = v
	}
	return fmt.Errorf("decoder violated the determinism contract %d time(s): %w",
		len(r.Violations), errors.Join(errs...))
}

// collecting returns a copy of cfg whose Report appends into a fresh
// Result (chaining any caller-supplied Report).
func collecting(cfg Config) (Config, *Result) {
	res := &Result{}
	prev := cfg.Report
	cfg.Report = func(v *Violation) {
		res.Violations = append(res.Violations, v)
		if prev != nil {
			prev(v)
		}
	}
	return cfg, res
}

// WithScheme returns a copy of s whose decoder is wrapped in a collecting
// Sanitizer, plus the Result the wrapper reports into. Thread the returned
// scheme through any core/nbhd/sim check to sanitize every view that check
// visits, then consult Result.Err:
//
//	ss, res := sanitize.WithScheme(scheme, sanitize.Config{})
//	_, err := core.CheckCompleteness(ss, inst)
//	// handle err, then res.Err()
func WithScheme(s core.Scheme, cfg Config) (core.Scheme, *Result) {
	cfg, res := collecting(cfg)
	wrapped := Wrap(s.Decoder, cfg)
	res.san = wrapped
	s.Decoder = wrapped
	return s, res
}
