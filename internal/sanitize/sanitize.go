// Package sanitize is the dynamic half of the decoder determinism
// contract (the static half is internal/analysis + cmd/lcplint): a
// core.Decoder wrapper that re-runs every Decide call under
// behavior-preserving transformations of the view and fails loudly on any
// divergence. The transformations exercise exactly the freedoms the model
// grants the environment, so a divergence is always a contract violation,
// never a false positive:
//
//   - Repetition: Decide on an identical copy must return the same answer
//     (catches hidden state, map-iteration races, ambient randomness).
//   - Immutability: the view compares deep-equal before and after Decide
//     (views are shared between nodes, caches, and worker pools).
//   - Relabeling: local node numbers inside a distance class reflect
//     arbitrary host-graph indices, so Decide must be invariant under
//     distance-class-preserving renumberings — including the induced
//     rekeying of the port map (catches dependence on extraction order).
//   - Anonymity: a decoder with Anonymous() == true must decide identically
//     on the identifier-erased view.
//   - Instrumentation transparency: a counting wrapper around the decoder
//     (core.InstrumentDecoder with a live obs scope) must return the same
//     verdict as the plain decoder — observability is one-directional, so
//     switching metrics on must never change a decision. The static half of
//     this rule is the obspurity analyzer in internal/analysis.
//   - Order-invariance (opt-in, Config.OrderInvariant): order-preserving
//     identifier remaps via orderinv.RemapViewIDs must not change the
//     answer. Off by default because schemes that embed identifiers in
//     certificates (shatter, watermelon) are legitimately sensitive to the
//     remap desynchronizing labels from identifiers.
//
// Wrap the decoder of any scheme before running core or nbhd checks to
// sanitize every view the check visits; WithScheme bundles that pattern.
package sanitize

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"

	"hidinglcp/internal/core"
	"hidinglcp/internal/obs"
	"hidinglcp/internal/orderinv"
	"hidinglcp/internal/view"
)

// Config tunes the sanitizer. The zero value enables every default check
// with deterministic probe permutations.
type Config struct {
	// Repeats is the number of identical re-invocations per Decide call
	// (default 2).
	Repeats int
	// Relabelings is the number of random distance-class-preserving
	// renumberings probed per Decide call (default 3).
	Relabelings int
	// OrderInvariant additionally probes order-preserving identifier
	// remaps. Enable for decoders that claim order-invariance.
	OrderInvariant bool
	// Seed drives the probe permutations; runs are deterministic for a
	// fixed seed (default 1).
	Seed int64
	// Report receives each violation. Nil panics on the first violation,
	// which is the fail-loudly default for tests and checks.
	Report func(*Violation)
}

func (c Config) withDefaults() Config {
	if c.Repeats == 0 {
		c.Repeats = 2
	}
	if c.Relabelings == 0 {
		c.Relabelings = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Violation describes one detected contract breach.
type Violation struct {
	// Check names the probe that diverged: "repeat", "mutation",
	// "relabeling", "anonymity", "instrumentation", or "order-invariance".
	Check string
	// Detail is a human-readable account of the divergence.
	Detail string
	// View is a copy of the offending input view as Decide received it,
	// taken before the wrapped decoder ran: the caller's view may be a
	// scratch refilled after Decide returns, and a violation outlives it.
	View *view.View
}

// Error implements error.
func (v *Violation) Error() string {
	return fmt.Sprintf("decoder determinism violation [%s]: %s (on %s)", v.Check, v.Detail, v.View)
}

// Sanitizer is a core.Decoder that forwards to the wrapped decoder while
// probing every Decide call. It is itself stateless apart from the
// violation log and the probe RNG, and safe for the sequential use all
// repository checkers perform.
type Sanitizer struct {
	inner core.Decoder
	cfg   Config
	rng   *rand.Rand
	count int
	// instr is inner wrapped by core.InstrumentDecoder with a live scope;
	// probes compare its verdicts against inner's to prove the metrics
	// layer never feeds back into decisions.
	instr       core.Decoder
	instrProbes *obs.Counter
}

var _ core.Decoder = (*Sanitizer)(nil)

// Wrap builds a sanitizing decoder around d.
func Wrap(d core.Decoder, cfg Config) *Sanitizer {
	cfg = cfg.withDefaults()
	sc := obs.NewScope()
	return &Sanitizer{
		inner:       d,
		cfg:         cfg,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		instr:       core.InstrumentDecoder(d, sc, "sanitize.probe"),
		instrProbes: sc.Counter("sanitize.probe.decide.calls"),
	}
}

// Rounds forwards to the wrapped decoder.
func (s *Sanitizer) Rounds() int { return s.inner.Rounds() }

// Anonymous forwards to the wrapped decoder.
func (s *Sanitizer) Anonymous() bool { return s.inner.Anonymous() }

// Decisions returns the number of Decide calls sanitized so far.
func (s *Sanitizer) Decisions() int { return s.count }

// Decide forwards to the wrapped decoder and probes the call. On a clean
// decoder it is output-equivalent to the wrapped Decide.
func (s *Sanitizer) Decide(mu *view.View) bool {
	// The sanitizer is instrumentation around decoders, not a decoder under
	// the purity contract: the decision counter is probe bookkeeping.
	//lint:ignore decoderpurity the Decisions() counter is sanitizer instrumentation, not decoder state
	s.count++
	snap := mu.Clone()
	out := s.inner.Decide(mu)

	if !viewsDeepEqual(mu, snap) {
		s.violate("mutation", snap, "Decide mutated its view argument")
		// Continue probing against the pristine snapshot.
	}
	if got := s.instr.Decide(snap.Clone()); got != out {
		s.violate("instrumentation", snap, fmt.Sprintf(
			"instrumented decoder returned %v where the plain decoder returned %v; enabling metrics must not change verdicts", got, out))
	}
	for i := 0; i < s.cfg.Repeats; i++ {
		if got := s.inner.Decide(snap.Clone()); got != out {
			s.violate("repeat", snap, fmt.Sprintf("repeated invocation %d returned %v, first returned %v", i+1, got, out))
		}
	}
	for i := 0; i < s.cfg.Relabelings; i++ {
		perm, free := distClassPerm(snap, s.rng)
		if !free {
			break // every distance class is a singleton; nothing to probe
		}
		if got := s.inner.Decide(relabelView(snap, perm)); got != out {
			s.violate("relabeling", snap, fmt.Sprintf(
				"distance-class-preserving renumbering %v changed the output from %v to %v; Decide depends on extraction order", perm, out, got))
		}
	}
	if s.inner.Anonymous() && !snap.Anonymous() {
		if got := s.inner.Decide(snap.Anonymize()); got != out {
			s.violate("anonymity", snap, fmt.Sprintf(
				"anonymized view changed the output from %v to %v although Anonymous() is true", out, got))
		}
	}
	if s.cfg.OrderInvariant {
		if remapped, ok := orderinv.RemapViewIDs(snap, shiftedIDTargets(snap)); ok {
			if got := s.inner.Decide(remapped); got != out {
				s.violate("order-invariance", snap, fmt.Sprintf(
					"order-preserving identifier remap changed the output from %v to %v", out, got))
			}
		}
	}
	return out
}

// violate reports through the configured sink, panicking by default. snap
// is Decide's pristine snapshot, which no probe hands to the decoder.
func (s *Sanitizer) violate(check string, snap *view.View, detail string) {
	v := &Violation{Check: check, Detail: detail, View: snap}
	if s.cfg.Report != nil {
		s.cfg.Report(v)
		return
	}
	panic(v.Error())
}

// viewsDeepEqual compares every field of two views, including the contents
// of the port rows.
func viewsDeepEqual(a, b *view.View) bool {
	return a.Radius == b.Radius &&
		a.NBound == b.NBound &&
		reflect.DeepEqual(a.Dist, b.Dist) &&
		slices.EqualFunc(a.Ports.Rows, b.Ports.Rows, slices.Equal[[]int]) &&
		reflect.DeepEqual(a.IDs, b.IDs) &&
		reflect.DeepEqual(a.Labels, b.Labels)
}

// distClassPerm draws a random permutation of local nodes that fixes the
// center and permutes only within distance classes — exactly the freedom
// the arbitrary host-graph numbering grants view extraction. free is false
// when every class is a singleton, i.e. the view admits no renumbering at
// all (the drawn permutation may still be the identity; that probe is then
// trivially satisfied).
func distClassPerm(mu *view.View, rng *rand.Rand) (perm []int, free bool) {
	n := mu.N()
	classes := map[int][]int{}
	for i := 1; i < n; i++ {
		classes[mu.Dist[i]] = append(classes[mu.Dist[i]], i)
	}
	perm = make([]int, n)
	perm[view.Center] = view.Center
	for d := 0; d <= mu.Radius; d++ {
		members := classes[d]
		if len(members) == 0 {
			continue
		}
		if len(members) > 1 {
			free = true
		}
		shuffled := append([]int(nil), members...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for k, src := range members {
			perm[src] = shuffled[k]
		}
	}
	return perm, free
}

// relabelView applies perm (old local index -> new local index) to mu,
// producing the view the same extraction would yield under a host
// numbering permuted within distance classes: the port rows move with
// their nodes, matching view.Extract's invariants.
func relabelView(mu *view.View, perm []int) *view.View {
	n := mu.N()
	out := &view.View{
		Radius: mu.Radius,
		Dist:   make([]int, n),
		Ports:  &view.PortRows{Rows: make([][]int, n)},
		IDs:    make([]int, n),
		Labels: make([]string, n),
		NBound: mu.NBound,
	}
	for i := 0; i < n; i++ {
		ni := perm[i]
		out.Dist[ni] = mu.Dist[i]
		out.IDs[ni] = mu.IDs[i]
		out.Labels[ni] = mu.Labels[i]
		if row := mu.Ports.Rows[i]; len(row) > 0 {
			nrow := make([]int, len(row))
			for p0, j := range row {
				nrow[p0] = -1
				if j >= 0 {
					nrow[p0] = perm[j]
				}
			}
			out.Ports.Rows[ni] = nrow
		}
	}
	return out
}

// shiftedIDTargets builds a remap target set that preserves identifier
// order but changes every value (id -> spread ranks), staying within a
// padded NBound so the remapped view remains well-formed.
func shiftedIDTargets(mu *view.View) []int {
	distinct := map[int]bool{}
	for _, id := range mu.IDs {
		if id != 0 {
			distinct[id] = true
		}
	}
	maxID := 0
	for id := range distinct {
		if id > maxID {
			maxID = id
		}
	}
	targets := make([]int, 0, len(distinct))
	for i := 0; i < len(distinct); i++ {
		// maxID+1, maxID+2, ...: ascending and strictly above every
		// original identifier, so the remap changes every value.
		// RemapViewIDs pads NBound when the targets exceed it.
		targets = append(targets, maxID+1+i)
	}
	return targets
}
