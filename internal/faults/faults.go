// Package faults defines the deterministic fault-injection model the
// message-passing simulator (internal/sim) runs under: message drop,
// duplication, delay, and reordering on every directed link, crash-stop
// node failures on a per-round schedule, and adversarial corruption of the
// certificates at a chosen node subset.
//
// The paper's strong soundness (Section 2.3) is an adversarial guarantee —
// on a no-instance *every* certificate assignment must be rejected
// somewhere — so the simulator only earns its keep when the network and
// the prover misbehave. This package supplies the misbehavior as data: a
// Plan is a value, and every decision the scheduler takes under a Plan is
// a pure function of (Plan.Seed, round, src, dst, copy) computed by the
// Injector. Two runs under the same (seed, Plan) therefore replay
// bit-identically, and the zero-value Plan injects nothing at all — the
// fault-free synchronous LOCAL run.
package faults

import (
	"fmt"
	"sort"
	"strings"
)

// Plan describes the faults injected into one gather. The zero value
// is the fault-free plan: no drops, no duplicates, no delays, in-order
// delivery, no crashes, no corruption. Plans are plain data — copy them
// freely; the same Plan value always drives the same schedule.
type Plan struct {
	// Seed keys every pseudorandom decision. Two runs with equal Seed and
	// equal remaining fields are bit-identical.
	Seed int64
	// Drop is the per-message drop probability in [0,1]. A dropped message
	// silently never reaches the link.
	Drop float64
	// Duplicate is the per-message duplication probability in [0,1]. A
	// duplicated message is delivered twice (each copy delayed
	// independently).
	Duplicate float64
	// Delay is the per-copy probability in [0,1] that a message copy is
	// held back; a delayed copy arrives 1..MaxDelay rounds late. Copies
	// still in flight when the run ends expire undelivered.
	Delay float64
	// MaxDelay bounds the per-copy delay in rounds; 0 means 1.
	MaxDelay int
	// Reorder permutes the per-round delivery order at every receiver
	// (seeded). Knowledge merging is commutative, so reordering never
	// changes assembled views — the point is to prove exactly that.
	Reorder bool
	// Crashes maps a node to the round at the start of which it
	// crash-stops: it sends nothing from that round on (including its own
	// in-flight delayed copies, which die with it) and never reports a
	// verdict. Neighbors observe only silence and time out. A crash round
	// >= the run's radius never fires.
	Crashes map[int]int
	// CorruptNodes lists nodes whose certificates are adversarially
	// corrupted before round 0 by a seeded byte mutation that always
	// differs from the original label.
	CorruptNodes []int
	// CorruptLabels replaces the certificates of the keyed nodes with the
	// given explicit strings (applied after CorruptNodes mutations).
	CorruptLabels map[int]string
	// Trace records one canonical Event per scheduler decision into the
	// run's Report, for golden-replay pinning. Off by default: counters
	// are always collected, events only on request.
	Trace bool
}

// Active reports whether the plan injects any fault at all. An inactive
// plan (regardless of Seed) reproduces the fault-free run exactly.
func (p Plan) Active() bool {
	return p.Drop > 0 || p.Duplicate > 0 || p.Delay > 0 || p.Reorder ||
		len(p.Crashes) > 0 || len(p.CorruptNodes) > 0 || len(p.CorruptLabels) > 0
}

// Validate checks the plan against an n-node instance.
func (p Plan) Validate(n int) error {
	probs := []struct {
		name string
		p    float64
	}{{"drop", p.Drop}, {"duplicate", p.Duplicate}, {"delay", p.Delay}}
	for _, pr := range probs {
		// Negated so that NaN, which compares false both ways, is rejected.
		if !(pr.p >= 0 && pr.p <= 1) {
			return fmt.Errorf("fault plan: %s probability %v outside [0,1]", pr.name, pr.p)
		}
	}
	if p.MaxDelay < 0 {
		return fmt.Errorf("fault plan: negative MaxDelay %d", p.MaxDelay)
	}
	for _, v := range sortedKeys(p.Crashes) {
		if v < 0 || v >= n {
			return fmt.Errorf("fault plan: crash node %d outside [0,%d)", v, n)
		}
		if r := p.Crashes[v]; r < 0 {
			return fmt.Errorf("fault plan: negative crash round %d for node %d", r, v)
		}
	}
	for _, v := range p.CorruptNodes {
		if v < 0 || v >= n {
			return fmt.Errorf("fault plan: corrupt node %d outside [0,%d)", v, n)
		}
	}
	for _, v := range sortedKeys(p.CorruptLabels) {
		if v < 0 || v >= n {
			return fmt.Errorf("fault plan: corrupt-label node %d outside [0,%d)", v, n)
		}
	}
	return nil
}

// CorruptTargets returns the sorted, deduplicated union of CorruptNodes
// and the keys of CorruptLabels — the full node subset whose certificates
// the adversary rewrites.
func (p Plan) CorruptTargets() []int {
	seen := make(map[int]bool, len(p.CorruptNodes)+len(p.CorruptLabels))
	for _, v := range p.CorruptNodes {
		seen[v] = true
	}
	for v := range p.CorruptLabels {
		seen[v] = true
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// CrashRound returns the scheduled crash round of v and whether v crashes
// at all under the plan.
func (p Plan) CrashRound(v int) (int, bool) {
	r, ok := p.Crashes[v]
	return r, ok
}

// String renders the plan's knobs for logs and manifests. Explicit
// replacement certificates are summarized by node set only — label bytes
// never reach an observer (the hiding contract applies to the adversary's
// certificates exactly as to the prover's).
func (p Plan) String() string {
	var parts []string
	add := func(format string, args ...any) { parts = append(parts, fmt.Sprintf(format, args...)) }
	if p.Drop > 0 {
		add("drop=%g", p.Drop)
	}
	if p.Duplicate > 0 {
		add("dup=%g", p.Duplicate)
	}
	if p.Delay > 0 {
		add("delay=%g:%d", p.Delay, p.maxDelay())
	}
	if p.Reorder {
		add("reorder")
	}
	if len(p.Crashes) > 0 {
		nodes := sortedKeys(p.Crashes)
		crash := make([]string, len(nodes))
		for i, v := range nodes {
			crash[i] = fmt.Sprintf("%d@%d", v, p.Crashes[v])
		}
		add("crash=%s", strings.Join(crash, "+"))
	}
	if targets := p.CorruptTargets(); len(targets) > 0 {
		add("corrupt=%s", joinInts(targets, "+"))
	}
	if len(parts) == 0 {
		return fmt.Sprintf("fault-free (seed=%d)", p.Seed)
	}
	return fmt.Sprintf("seed=%d %s", p.Seed, strings.Join(parts, " "))
}

func (p Plan) maxDelay() int {
	if p.MaxDelay <= 0 {
		return 1
	}
	return p.MaxDelay
}

// sortedKeys returns the keys of an int-keyed map in increasing order, so
// iteration over plan maps is deterministic.
func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func joinInts(xs []int, sep string) string {
	ss := make([]string, len(xs))
	for i, x := range xs {
		ss[i] = fmt.Sprintf("%d", x)
	}
	return strings.Join(ss, sep)
}

// Decision streams: each fault kind draws from its own hash stream so that
// enabling one knob never shifts another's decisions.
const (
	streamDrop uint64 = iota + 1
	streamDup
	streamDelay
	streamDelayLen
	streamPerm
	streamCorrupt
)

// Injector answers every scheduler question about the plan as a pure
// function of (seed, round, src, dst, copy). It holds no mutable state and
// is safe for concurrent use.
type Injector struct {
	plan Plan
	seed uint64
}

// NewInjector builds the decision oracle for the plan.
func NewInjector(p Plan) *Injector {
	return &Injector{plan: p, seed: splitmix64(uint64(p.Seed) ^ 0xD6E8FEB86659FD93)}
}

// splitmix64 is the finalizer of the SplitMix64 generator — a bijective
// avalanche mix, the standard stateless way to turn coordinates into
// independent pseudorandom streams.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// bits derives the decision word for one (stream, round, src, dst, copy)
// coordinate. Feeding each coordinate through its own mix round keeps
// nearby coordinates decorrelated.
func (in *Injector) bits(stream uint64, round, src, dst, copyIdx int) uint64 {
	h := in.seed
	h = splitmix64(h ^ stream)
	h = splitmix64(h ^ uint64(uint32(round)))
	h = splitmix64(h ^ uint64(uint32(src)))
	h = splitmix64(h ^ uint64(uint32(dst)))
	h = splitmix64(h ^ uint64(uint32(copyIdx)))
	return h
}

// unit maps a decision word to [0,1) with 53-bit precision.
func unit(bits uint64) float64 { return float64(bits>>11) / (1 << 53) }

// Deliveries returns the arrival rounds of the copies of the message src
// sends to dst at the given round, and whether the message was dropped
// outright. arrivals[:copies] has one entry per copy (two under
// duplication, none when dropped); a copy's arrival equals the send round
// unless delayed.
func (in *Injector) Deliveries(round, src, dst int) (arrivals [2]int, copies int, dropped bool) {
	p := in.plan
	if p.Drop > 0 && unit(in.bits(streamDrop, round, src, dst, 0)) < p.Drop {
		return arrivals, 0, true
	}
	copies = 1
	if p.Duplicate > 0 && unit(in.bits(streamDup, round, src, dst, 0)) < p.Duplicate {
		copies = 2
	}
	for c := range copies {
		d := 0
		if p.Delay > 0 && unit(in.bits(streamDelay, round, src, dst, c)) < p.Delay {
			d = 1 + int(in.bits(streamDelayLen, round, src, dst, c)%uint64(p.maxDelay()))
		}
		arrivals[c] = round + d
	}
	return arrivals, copies, false
}

// PermuteNeighbors returns the receiver's drain order for one round: a
// seeded Fisher–Yates permutation of order, written over dst, when the
// plan reorders, or order itself otherwise. The input slice is never
// modified; dst must not alias it.
func (in *Injector) PermuteNeighbors(dst []int, round, node int, order []int) []int {
	if !in.plan.Reorder {
		return order
	}
	out := append(dst[:0], order...)
	for i := len(out) - 1; i > 0; i-- {
		j := int(in.bits(streamPerm, round, node, i, 0) % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// CorruptLabel returns the adversary's certificate for node: the explicit
// replacement from Plan.CorruptLabels when present, else a seeded byte
// mutation of label that is guaranteed to differ from it (every byte is
// XORed with a nonzero mask; an empty label becomes one nonzero byte).
func (in *Injector) CorruptLabel(node int, label string) string {
	if repl, ok := in.plan.CorruptLabels[node]; ok {
		return repl
	}
	if label == "" {
		return string(rune('A' + in.bits(streamCorrupt, 0, node, 0, 0)%26))
	}
	out := []byte(label)
	for i := range out {
		mask := byte(in.bits(streamCorrupt, 0, node, i, 0))
		if mask == 0 {
			mask = 0xA5
		}
		out[i] ^= mask
	}
	return string(out)
}
