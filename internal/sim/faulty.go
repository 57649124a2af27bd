package sim

import (
	"context"
	"fmt"

	"hidinglcp/internal/cancel"
	"hidinglcp/internal/core"
	"hidinglcp/internal/faults"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/obs"
	"hidinglcp/internal/view"
)

// The fault-injected runtime. Each of the r synchronous rounds of the
// LOCAL model (Section 2.2) is two passes over the nodes in index order:
//
//	send:    every live node floods the knowledge it held at the end of
//	         the previous round to its neighbors' inboxes; the injector
//	         decides per (round, src, dst) whether a message is dropped,
//	         duplicated, or delayed, and delayed copies are held at the
//	         sender until their arrival round.
//	receive: every live node merges what arrived on its incident links (in
//	         injected order under reordering) and records a per-round
//	         timeout for each link that stayed silent.
//
// A node's knowledge changes only by merging payloads delivered to it, so
// views are gathered by message passing, not extracted. Every decision is
// a pure function of (Plan.Seed, round, src, dst, copy) — see
// faults.Injector — so the gathered views, stats, and report are
// bit-identical across runs of the same (seed, plan). The zero-value
// faults.Plan makes the engine the fault-free synchronous run: one message
// per directed edge per round, no timeouts, views pinned against
// view.Extract.
//
// Crash-stop semantics: a node scheduled to crash at round t sends and
// receives nothing from round t on (its delayed in-flight copies die with
// it, counted as expired) and never reports a verdict; its neighbors
// observe only silence and time out. With every crash at round 0,
// survivors' views equal centralized extraction on the crash-induced
// subgraph under graph.InducedPorts (fuzz-pinned).

// pendingMsg is a delayed copy held at its sender until the arrival round.
type pendingMsg struct {
	arrival, dst int
	payload      knowledge
}

// delivery is one payload handed to a receiver's inbox.
type delivery struct {
	src     int
	payload knowledge
}

// Gather runs r rounds of synchronous flooding under the fault plan and
// returns every surviving node's radius-r view (nil at crashed nodes), the
// communication stats, and the structured fault report. The views are
// owned by the caller. The host indices inside messages are transport
// bookkeeping only (they never reach the decoders, which see view-local
// numbering exactly as with view.Extract). Errors are reserved for misuse
// — negative radius, invalid plan, malformed port assignment — never for
// injected faults. The zero-value plan is the fault-free run.
//
// Cancellation is checked at every round boundary: once ctx fires, the
// gather finishes at most the round it is in, and the call returns the
// cancellation error and no views and no report — a cancelled gather's
// partial state is not published. A nil ctx is the never-cancelled context
// (internal/cancel). Fault counters and a span are reported into sc.
func Gather(ctx context.Context, sc obs.Scope, l core.Labeled, r int, plan faults.Plan) ([]*view.View, Stats, *faults.Report, error) {
	views := make([]*view.View, l.G.N())
	stats, rep, err := gatherEach(ctx, sc, l, r, plan, l.IDs, true, func(v int, mu *view.View) {
		views[v] = mu
	})
	if err != nil {
		return nil, stats, rep, err
	}
	return views, stats, rep, nil
}

// gatherEach is Gather handing each surviving node's view to each, in node
// order, instead of returning the views. A view is built on ids (nil for
// anonymous views) in the subgraph induced by the nodes its center heard
// of. With owned, each view has storage of its own, sized to it, and each
// may keep it; otherwise the view is one scratch refilled for the next
// node after each returns, so each must not retain it or any of its
// slices. The sim.gather span covers the flood and every call of each.
func gatherEach(ctx context.Context, sc obs.Scope, l core.Labeled, r int, plan faults.Plan, ids graph.IDs, owned bool, each func(v int, mu *view.View)) (Stats, *faults.Report, error) {
	n := l.G.N()
	if r < 0 {
		return Stats{}, nil, fmt.Errorf("negative radius %d", r)
	}
	if err := plan.Validate(n); err != nil {
		return Stats{}, nil, err
	}
	if len(l.Labels) != n {
		return Stats{}, nil, fmt.Errorf("labeling covers %d nodes, graph has %d", len(l.Labels), n)
	}
	// A malformed port assignment — one that is not a port numbering of
	// the instance's edges — surfaces as an error here, at the start of
	// every gather, instead of as a panic or a wrong view when the views
	// are built from its rows.
	if l.Prt == nil {
		return Stats{}, nil, fmt.Errorf("instance has no port assignment")
	}
	if err := l.Prt.Validate(l.G); err != nil {
		return Stats{}, nil, fmt.Errorf("malformed port assignment: %w", err)
	}
	// The span is nil when sc does not trace, and its attributes are then
	// not formatted at all.
	span := sc.Span(sc.Label("sim.gather"))
	if span != nil {
		span.SetAttr("plan", plan.String())
	}
	defer span.End()

	in := faults.NewInjector(plan)
	rep := faults.NewReport(plan.Trace)

	// Adversarial certificate corruption happens before round 0: the
	// corrupted nodes flood (and judge) the adversary's labels, never the
	// prover's.
	labels := l.Labels
	if targets := plan.CorruptTargets(); len(targets) > 0 {
		labels = append([]string(nil), labels...)
		for _, v := range targets {
			labels[v] = in.CorruptLabel(v, labels[v])
			rep.Corrupt(v)
		}
	}

	// Each node starts out knowing itself. Every knowledge value is a
	// capped window of the append-only sets (a grown copy leaves the
	// windows handed out intact). Each inbox is a capped window of one
	// backing with a slot per link; extra copies spill into a new array.
	sets := make(knowledge, n, 8*n)
	know := make([]knowledge, n)
	inbox := make([][]delivery, n)
	slots := make([]delivery, 2*l.G.M())
	for v := range know {
		sets[v] = int32(v)
		know[v] = sets[v : v+1 : v+1]
		inbox[v], slots = slots[:0:l.G.Degree(v)], slots[l.G.Degree(v):]
	}
	// bufs alternate as a receive's running union, so a merge never writes
	// over its own operand; perm is a receiver's drain order.
	var bufs [2]knowledge
	var perm []int

	crashed := make([]bool, n)
	pending := make([][]pendingMsg, n)
	stats := Stats{Rounds: r}
	send := func(src, dst int, payload knowledge) {
		inbox[dst] = append(inbox[dst], delivery{src: src, payload: payload})
		stats.Messages++
		stats.Records += len(payload)
	}
	stop := cancel.NewStop(ctx)
	for t := 0; t < r && !stop.Stopped(); t++ {
		// Send pass.
		for v := 0; v < n; v++ {
			if crashed[v] {
				continue
			}
			if cr, ok := plan.CrashRound(v); ok && cr <= t {
				// Crash-stop: quiescent from here on. In-flight delayed
				// copies die with the node.
				for _, pm := range pending[v] {
					rep.Expire(t, v, pm.dst, pm.arrival)
				}
				rep.Crash(t, v)
				crashed[v] = true
				continue
			}
			// Flush delayed copies due this round first, then flood the
			// previous round's knowledge through the injector. The receive
			// pass replaces know[v] and never writes it, so inboxes and
			// delayed copies hold the slice itself.
			rest := pending[v][:0]
			for _, pm := range pending[v] {
				if pm.arrival == t {
					send(v, pm.dst, pm.payload)
				} else {
					rest = append(rest, pm)
				}
			}
			pending[v] = rest
			for _, w := range l.G.Neighbors(v) {
				arrivals, copies, dropped := in.Deliveries(t, v, w)
				if dropped {
					rep.Drop(t, v, w)
					continue
				}
				for c, a := range arrivals[:copies] {
					if c > 0 {
						rep.Dup(t, v, w, a)
					}
					switch {
					case a == t:
						send(v, w, know[v])
					case a >= r:
						// Arrives after the run's horizon: never
						// delivered.
						rep.Expire(t, v, w, a)
					default:
						rep.Delay(t, v, w, a)
						pending[v] = append(pending[v], pendingMsg{arrival: a, dst: w, payload: know[v]})
					}
				}
			}
		}
		// Receive pass.
		for v := 0; v < n; v++ {
			box := inbox[v]
			inbox[v] = box[:0]
			if crashed[v] {
				continue
			}
			order := l.G.Neighbors(v)
			if plan.Reorder && len(order) > 1 {
				perm = in.PermuteNeighbors(perm, t, v, order)
				order = perm
				rep.Reorder(t, v)
			}
			acc, next := know[v], 0
			for _, w := range order {
				heard := false
				for _, d := range box {
					if d.src == w {
						if u := acc.merge(d.payload, bufs[next]); len(u) > len(acc) {
							bufs[next], acc, next = u, u, 1-next
						}
						heard = true
					}
				}
				if !heard {
					rep.Timeout(t, w, v)
				}
			}
			if len(acc) > len(know[v]) {
				sets = append(sets, acc...)
				know[v] = sets[len(sets)-len(acc) : len(sets) : len(sets)]
			}
		}
	}
	if err := cancel.Err(ctx, "message-passing gather"); err != nil {
		sc.Counter("sim.gather.cancelled").Inc()
		return Stats{}, nil, err
	}
	rep.Finalize()

	var (
		ex      view.Extractor
		scratch view.Template
		mu      view.View
	)
	for v := 0; v < n; v++ {
		if crashed[v] {
			continue
		}
		tpl, err := &scratch, error(nil)
		if owned {
			tpl, err = ex.Template(l.G, l.Prt, ids, l.NBound, v, r, know[v]...)
		} else {
			err = ex.TemplateInto(tpl, l.G, l.Prt, ids, l.NBound, v, r, know[v])
		}
		if err != nil {
			return stats, rep, fmt.Errorf("view of node %d: %w", v, err)
		}
		if tpl.N() != len(know[v]) {
			// Knowledge spreads one hop per round and every record travels
			// with the edge chain it came along (even under drop, delay,
			// and duplication faults), so a record outside the radius-r
			// ball is unreachable under flooding; treat it as a bug.
			return stats, rep, fmt.Errorf("view of node %d: %d gathered records outside radius %d", v, len(know[v])-tpl.N(), r)
		}
		if owned {
			each(v, tpl.Instantiate(labels))
		} else {
			each(v, tpl.InstantiateInto(&mu, labels))
		}
	}

	if sc.Enabled() {
		sc.Counter("sim.messages").Add(int64(stats.Messages))
		sc.Counter("sim.records").Add(int64(stats.Records))
		sc.Counter("sim.dropped").Add(int64(rep.Dropped))
		sc.Counter("sim.duplicated").Add(int64(rep.Duplicated))
		sc.Counter("sim.delayed").Add(int64(rep.Delayed))
		sc.Counter("sim.expired").Add(int64(rep.Expired))
		sc.Counter("sim.timeouts").Add(int64(rep.Timeouts))
		sc.Counter("sim.crashed").Add(int64(len(rep.Crashed)))
		sc.Counter("sim.corrupted").Add(int64(len(rep.Corrupted)))
	}
	if span != nil {
		span.SetAttr("faults", rep.Summary())
	}
	return stats, rep, nil
}

// FaultReport is the graceful-degradation outcome of RunSchemeFaultsCtx: one
// verdict per node (crashed nodes issue none), the communication stats,
// and the scheduler's structured fault report. Degradation is data, not an
// error — the caller decides what a crash or a rejection means for its
// acceptance criterion.
type FaultReport struct {
	// Verdicts has one entry per node of the instance.
	Verdicts []core.Verdict
	// Stats is the run's communication volume (faulty deliveries
	// included).
	Stats Stats
	// Faults is the scheduler's report: counters, crashed/corrupted node
	// sets, and the canonical trace when the plan asked for one.
	Faults *faults.Report
}

// Counts tallies the verdicts into (accepted, rejected, crashed).
func (fr *FaultReport) Counts() (accepted, rejected, crashed int) {
	return core.CountVerdicts(fr.Verdicts)
}

// AllAccept reports whether every node ran to completion and accepted.
func (fr *FaultReport) AllAccept() bool { return core.AllAcceptVerdicts(fr.Verdicts) }

// RunSchemeFaultsCtx certifies the instance with the scheme's prover, runs
// the fault-injected gather, and evaluates the decoder at every surviving
// node: the end-to-end "distributed certification" entry point. Injected
// faults never produce an error: crashed nodes get VerdictCrashed, nodes
// with truncated or corrupted views get the decoder's honest verdict on
// what they saw, and the FaultReport says what was injected. Errors are
// reserved for misuse: a prover that rejects the instance, an invalid
// plan, a malformed port assignment. Under the zero-value plan every node
// gets the verdict of the fault-free run.
//
// Each node's view is decided as soon as it is built and then discarded:
// the decoder sees one scratch view, refilled for the next node, which it
// must not retain (the contract of core.Run). An anonymous decoder's views
// carry no identifiers. The sim.gather span covers the flood and the
// building and deciding of every view.
//
// When ctx fires, the gather stops at the next round boundary (see Gather)
// and the call returns no FaultReport alongside the cancellation error.
// Verdict counters are reported into sc.
func RunSchemeFaultsCtx(ctx context.Context, sc obs.Scope, s core.Scheme, inst core.Instance, plan faults.Plan) (*FaultReport, error) {
	labels, err := s.Prover.Certify(inst)
	if err != nil {
		return nil, fmt.Errorf("prover: %w", err)
	}
	l, err := core.NewLabeled(inst, labels)
	if err != nil {
		return nil, err
	}
	ids := l.IDs
	if s.Decoder.Anonymous() {
		ids = nil
	}
	verdicts := make([]core.Verdict, l.G.N())
	for v := range verdicts {
		verdicts[v] = core.VerdictCrashed
	}
	stats, rep, err := gatherEach(ctx, sc, l, s.Decoder.Rounds(), plan, ids, false, func(v int, mu *view.View) {
		verdicts[v] = core.VerdictReject
		if s.Decoder.Decide(mu) {
			verdicts[v] = core.VerdictAccept
		}
	})
	if err != nil {
		return nil, err
	}
	fr := &FaultReport{Verdicts: verdicts, Stats: stats, Faults: rep}
	if sc.Enabled() {
		// Verdict conservation (accepted + rejected + crashed = nodes) and
		// crash accounting (crashed verdicts = injected in-horizon crashes)
		// are gated longitudinally by cmd/obsdiff — see history.CheckInvariants.
		accepted, rejected, crashed := fr.Counts()
		sc.Counter("sim.nodes").Add(int64(len(verdicts)))
		sc.Counter("sim.verdicts.accepted").Add(int64(accepted))
		sc.Counter("sim.verdicts.rejected").Add(int64(rejected))
		sc.Counter("sim.verdicts.crashed").Add(int64(crashed))
	}
	return fr, nil
}
