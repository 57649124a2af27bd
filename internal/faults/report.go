package faults

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Event is one scheduler decision, recorded only when Plan.Trace is set.
// Events are canonical: after Finalize they are sorted by (round, kind,
// src, dst, detail), so two bit-identical runs render byte-identical
// traces whatever order the events were recorded in. Round -1 marks
// pre-run events (certificate corruption happens before round 0).
type Event struct {
	Round int
	Kind  string
	// Src and Dst are the message's sender and receiver host indices, or
	// the affected node in Src with Dst == -1 for node-scoped events.
	Src, Dst int
	// Detail carries kind-specific data (e.g. "arrive=3"). Never
	// certificate bytes: traces are observer-facing and fall under the
	// hiding contract.
	Detail string
}

// Event kinds, in canonical sort order.
const (
	KindCorrupt = "corrupt"
	KindCrash   = "crash"
	KindDrop    = "drop"
	KindDup     = "dup"
	KindDelay   = "delay"
	KindExpire  = "expire"
	KindReorder = "reorder"
	KindTimeout = "timeout"
)

var kindRank = map[string]int{
	KindCorrupt: 0, KindCrash: 1, KindDrop: 2, KindDup: 3,
	KindDelay: 4, KindExpire: 5, KindReorder: 6, KindTimeout: 7,
}

// String renders the event as one stable trace line.
func (e Event) String() string {
	prefix := fmt.Sprintf("round=%d", e.Round)
	if e.Round < 0 {
		prefix = "init"
	}
	var body string
	switch e.Kind {
	case KindCorrupt, KindCrash, KindReorder:
		body = fmt.Sprintf("%s node=%d", e.Kind, e.Src)
	case KindTimeout:
		// A timeout is observed by the receiver: Dst waited on Src.
		body = fmt.Sprintf("%s %d<-%d", e.Kind, e.Dst, e.Src)
	default:
		body = fmt.Sprintf("%s %d->%d", e.Kind, e.Src, e.Dst)
	}
	if e.Detail != "" {
		body += " " + e.Detail
	}
	return prefix + " " + body
}

// Report is the structured outcome of one run under a Plan: counters for
// every fault kind, the crashed and corrupted node sets, and (under
// Plan.Trace) the canonical event log. The scheduler records into it
// through its methods, which are safe for concurrent use; after Finalize
// it is a plain value to read.
type Report struct {
	mu    sync.Mutex
	trace bool

	// Dropped counts messages removed at the sender's link.
	Dropped int
	// Duplicated counts extra copies created by duplication.
	Duplicated int
	// Delayed counts copies held back at least one round.
	Delayed int
	// Expired counts delayed copies still in flight when the run ended
	// (or whose sender crashed first); they were never delivered.
	Expired int
	// Timeouts counts (receiver, round, link) triples on which nothing
	// arrived.
	Timeouts int
	// Crashed lists the nodes that crash-stopped during the run, sorted.
	Crashed []int
	// Corrupted lists the nodes whose certificates the adversary
	// rewrote, sorted.
	Corrupted []int
	// Events is the canonical trace (empty unless the plan set Trace).
	Events []Event
}

// NewReport returns a report collecting counters, and events too when
// trace is set.
func NewReport(trace bool) *Report { return &Report{trace: trace} }

func (r *Report) record(e Event) {
	if !r.trace {
		return
	}
	r.Events = append(r.Events, e)
}

// recordArrival records e with its copy's arrival round as the detail,
// formatting it only when the report keeps events.
func (r *Report) recordArrival(e Event, arrival int) {
	if r.trace {
		e.Detail = fmt.Sprintf("arrive=%d", arrival)
		r.record(e)
	}
}

// Corrupt records the pre-run corruption of node's certificate.
func (r *Report) Corrupt(node int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Corrupted = append(r.Corrupted, node)
	r.record(Event{Round: -1, Kind: KindCorrupt, Src: node, Dst: -1})
}

// Crash records that node crash-stopped at the start of round.
func (r *Report) Crash(round, node int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Crashed = append(r.Crashed, node)
	r.record(Event{Round: round, Kind: KindCrash, Src: node, Dst: -1})
}

// Drop records a dropped message src->dst at round.
func (r *Report) Drop(round, src, dst int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Dropped++
	r.record(Event{Round: round, Kind: KindDrop, Src: src, Dst: dst})
}

// Dup records the extra copy of a duplicated message and its arrival.
func (r *Report) Dup(round, src, dst, arrival int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Duplicated++
	r.recordArrival(Event{Round: round, Kind: KindDup, Src: src, Dst: dst}, arrival)
}

// Delay records a copy held back to the given arrival round.
func (r *Report) Delay(round, src, dst, arrival int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Delayed++
	r.recordArrival(Event{Round: round, Kind: KindDelay, Src: src, Dst: dst}, arrival)
}

// Expire records a copy whose arrival round lies beyond the run horizon.
func (r *Report) Expire(round, src, dst, arrival int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Expired++
	r.recordArrival(Event{Round: round, Kind: KindExpire, Src: src, Dst: dst}, arrival)
}

// Reorder records that node drained its links in permuted order at round.
func (r *Report) Reorder(round, node int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.record(Event{Round: round, Kind: KindReorder, Src: node, Dst: -1})
}

// Timeout records that nothing from src reached dst at round.
func (r *Report) Timeout(round, src, dst int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Timeouts++
	r.record(Event{Round: round, Kind: KindTimeout, Src: src, Dst: dst})
}

// Finalize sorts the node sets and the event log into canonical order.
// Call once, after the last event has been recorded; the report is a
// plain value afterwards.
func (r *Report) Finalize() {
	sort.Ints(r.Crashed)
	sort.Ints(r.Corrupted)
	sort.Slice(r.Events, func(i, j int) bool {
		a, b := r.Events[i], r.Events[j]
		if a.Round != b.Round {
			return a.Round < b.Round
		}
		if kindRank[a.Kind] != kindRank[b.Kind] {
			return kindRank[a.Kind] < kindRank[b.Kind]
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		return a.Detail < b.Detail
	})
}

// TraceLines renders the canonical event log, one line per event.
func (r *Report) TraceLines() []string {
	out := make([]string, len(r.Events))
	for i, e := range r.Events {
		out[i] = e.String()
	}
	return out
}

// Summary renders the counters in one stable line.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dropped=%d duplicated=%d delayed=%d expired=%d timeouts=%d",
		r.Dropped, r.Duplicated, r.Delayed, r.Expired, r.Timeouts)
	fmt.Fprintf(&b, " crashed=%s corrupted=%s", formatNodeSet(r.Crashed), formatNodeSet(r.Corrupted))
	return b.String()
}

func formatNodeSet(xs []int) string {
	if len(xs) == 0 {
		return "[]"
	}
	return "[" + joinInts(xs, " ") + "]"
}
