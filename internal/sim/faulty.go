package sim

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"hidinglcp/internal/cancel"
	"hidinglcp/internal/core"
	"hidinglcp/internal/faults"
	"hidinglcp/internal/obs"
	"hidinglcp/internal/view"
)

// The fault-injected runtime. The scheduler keeps the one-goroutine-per-
// node, one-channel-per-directed-edge architecture of the fault-free
// simulator but drives each round through two barrier-separated phases:
//
//	send:    every live node floods its current knowledge to its
//	         neighbors; the injector decides per (round, src, dst) whether
//	         a message is dropped, duplicated, or delayed, and delayed
//	         copies are held at the sender until their arrival round.
//	receive: every live node drains its incident links (in injected order
//	         under reordering), retrying a bounded number of times for
//	         links that stayed silent before declaring a per-round timeout
//	         and proceeding with whatever knowledge it has.
//
// Every decision is a pure function of (Plan.Seed, round, src, dst, copy)
// — see faults.Injector — and knowledge merging is commutative and
// idempotent, so the assembled views, stats, and report are bit-identical
// across runs of the same (seed, plan) no matter how the goroutines
// interleave. The zero-value faults.Plan makes the engine equivalent to
// the fault-free synchronous run: one message per directed edge per round,
// no timeouts, views pinned against view.Extract.
//
// Crash-stop semantics: a node scheduled to crash at round t sends nothing
// from round t on (its delayed in-flight copies die with it, counted as
// expired), never reports a verdict, and leaves the round barrier; its
// neighbors observe only silence and time out. With every crash at round
// 0, survivors' views equal centralized extraction on the crash-induced
// subgraph under graph.InducedPorts (fuzz-pinned).

// defaultRetryLimit is the receiver's poll budget for a silent link per
// round when the plan does not set one.
const defaultRetryLimit = 3

// message is one flooded payload on a link.
type message struct {
	payload knowledge
}

// pendingMsg is a delayed copy held at its sender until the arrival round.
type pendingMsg struct {
	arrival int
	dst     int
	payload knowledge
}

// GatherFaultsCtx runs r rounds of synchronous flooding with one goroutine
// per node under the fault plan and returns every surviving node's
// assembled radius-r view (nil at crashed nodes), the communication stats,
// and the structured fault report. The host indices inside messages are
// transport bookkeeping only (they never reach the decoders, which see
// view-local numbering exactly as with view.Extract). Errors are reserved
// for misuse — negative radius, invalid plan, malformed port assignment —
// never for injected faults. The zero-value plan is the fault-free run.
//
// Cancellation is cooperative: when ctx fires, every node goroutine stops
// at its next round boundary (leaving the barrier like a crash-stopped
// node, so the survivors never deadlock), the call waits for every node
// goroutine to exit, and it returns no views and no report — a cancelled
// gather's partial state depends on which round each node had reached, so
// none of it is published. A nil ctx is the never-cancelled context
// (internal/cancel); a non-nil one only widens channel buffers, which no
// output observes. Fault counters and a span are reported into sc.
func GatherFaultsCtx(ctx context.Context, sc obs.Scope, l core.Labeled, r int, plan faults.Plan) ([]*view.View, Stats, *faults.Report, error) {
	n := l.G.N()
	if r < 0 {
		return nil, Stats{}, nil, fmt.Errorf("negative radius %d", r)
	}
	if err := plan.Validate(n); err != nil {
		return nil, Stats{}, nil, err
	}
	span := sc.Span(sc.Label("sim.gather"))
	span.SetAttr("plan", plan.String())
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

	know, err := initialKnowledge(l, labels)
	if err != nil {
		return nil, Stats{}, nil, err
	}

	// crashed[v] marks nodes whose crash round falls inside the run; only
	// those ever fire (a schedule beyond the horizon is a no-op).
	crashed := make([]bool, n)
	for _, v := range sortedCrashNodes(plan) {
		if cr, _ := plan.CrashRound(v); cr < r {
			crashed[v] = true
		}
	}

	// Capacity bounds the undrained backlog per link: at most two copies
	// per round (duplication), and a crashed receiver stops draining
	// altogether, so the whole run's traffic must fit. The fault-free plan
	// keeps today's single-slot channels — unless cancellation is possible:
	// nodes observe the abort flag at different rounds, so a neighbor one
	// round ahead of an aborted (no longer draining) node must still be
	// able to complete its send phase without blocking.
	capacity := 1
	if plan.Active() || ctx != nil {
		capacity = 2*r + 2
	}
	chans := make(map[[2]int]chan message, 2*l.G.M())
	for _, e := range l.G.Edges() {
		chans[[2]int{e[0], e[1]}] = make(chan message, capacity)
		chans[[2]int{e[1], e[0]}] = make(chan message, capacity)
	}

	retryLimit := plan.RetryLimit
	if retryLimit == 0 {
		retryLimit = defaultRetryLimit
	}

	bar := newBarrier(n)
	// Cancellation checkpoint: once the watcher arms the flag, every node
	// exits at its next round boundary, leaving the barrier exactly like a
	// crash-stopped node so the not-yet-aborted survivors never block.
	var aborted atomic.Bool
	release := cancel.Watch(ctx, &aborted)
	defer release()
	var statMu sync.Mutex
	stats := Stats{Rounds: r}
	// One goroutine per node, all live at once: the round barrier waits
	// for every node, so a claim loop over fewer workers would deadlock.
	cancel.Go(n, func(v int) {
		var local Stats
		defer func() {
			statMu.Lock()
			stats.Messages += local.Messages
			stats.Records += local.Records
			statMu.Unlock()
		}()
		myCrash, hasCrash := plan.CrashRound(v)
		var pending []pendingMsg
		for t := 0; t < r; t++ {
			if aborted.Load() {
				bar.leave()
				return
			}
			if hasCrash && myCrash <= t {
				// Crash-stop: quiescent from here on. In-flight
				// delayed copies die with the node.
				for _, pm := range pending {
					rep.Expire(t, v, pm.dst, pm.arrival)
				}
				rep.Crash(t, v)
				bar.leave()
				return
			}

			// Send phase. Flush delayed copies due this round first,
			// then flood this round's snapshot through the injector.
			snap := know[v].clone()
			rest := pending[:0]
			for _, pm := range pending {
				if pm.arrival == t {
					chans[[2]int{v, pm.dst}] <- message{payload: pm.payload}
					local.Messages++
					local.Records += len(pm.payload.nodes)
				} else {
					rest = append(rest, pm)
				}
			}
			pending = rest
			for _, w := range l.G.Neighbors(v) {
				arrivals, dropped := in.Deliveries(t, v, w)
				if dropped {
					rep.Drop(t, v, w)
					continue
				}
				for c, a := range arrivals {
					if c > 0 {
						rep.Dup(t, v, w, a)
					}
					switch {
					case a == t:
						chans[[2]int{v, w}] <- message{payload: snap}
						local.Messages++
						local.Records += len(snap.nodes)
					case a >= r:
						// Arrives after the run's horizon: never
						// delivered.
						rep.Expire(t, v, w, a)
					default:
						rep.Delay(t, v, w, a)
						pending = append(pending, pendingMsg{arrival: a, dst: w, payload: snap})
					}
				}
			}
			bar.wait()

			// Receive phase: drain every incident link, with bounded
			// retries for silent ones.
			order := l.G.Neighbors(v)
			if plan.Reorder && len(order) > 1 {
				order = in.PermuteNeighbors(t, v, order)
				rep.Reorder(t, v)
			}
			heard := make(map[int]bool, len(order))
			for attempt := 0; ; attempt++ {
				for _, w := range order {
					ch := chans[[2]int{w, v}]
				drain:
					for {
						select {
						case inc := <-ch:
							know[v].merge(inc.payload)
							heard[w] = true
						default:
							break drain
						}
					}
				}
				if len(heard) == len(order) || attempt >= retryLimit {
					break
				}
				runtime.Gosched()
			}
			for _, w := range order {
				if !heard[w] {
					rep.Timeout(t, w, v)
				}
			}
			bar.wait()
		}
	})()
	if err := cancel.Err(ctx, "message-passing gather"); err != nil {
		sc.Counter("sim.gather.cancelled").Inc()
		if sc.EventsEnabled() {
			sc.EmitSpanEvent(span, obs.LevelWarn, "sim.gather.cancelled",
				obs.Fi("rounds", int64(r)))
		}
		return nil, Stats{}, nil, err
	}
	rep.Finalize()

	views := make([]*view.View, n)
	for v := 0; v < n; v++ {
		if crashed[v] {
			continue
		}
		mu, err := assemble(know[v], v, r, l.NBound)
		if err != nil {
			return nil, stats, rep, fmt.Errorf("assembling view of node %d: %w", v, err)
		}
		views[v] = mu
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
	if sc.EventsEnabled() {
		// Per-crash events come from the finalized (sorted) node set, not the
		// racing node goroutines, so the log order is deterministic. Node
		// indices and fault counters are topology data, never certificate
		// bytes, so the hiding contract holds without redaction.
		for _, v := range rep.Crashed {
			sc.EmitSpanEvent(span, obs.LevelWarn, "sim.node.crashed", obs.Fi("node", int64(v)))
		}
		sc.EmitSpanEvent(span, obs.LevelInfo, "sim.gather.done",
			obs.Fi("rounds", int64(r)),
			obs.Fi("messages", int64(stats.Messages)),
			obs.F("faults", rep.Summary()))
	}
	span.SetAttr("faults", rep.Summary())
	return views, stats, rep, nil
}

// sortedCrashNodes lists the plan's crash-scheduled nodes in increasing
// order (map iteration must not leak into anything observable).
func sortedCrashNodes(plan faults.Plan) []int {
	out := make([]int, 0, len(plan.Crashes))
	for v := range plan.Crashes {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
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
// When ctx fires, the gather stops at the next round boundary (see
// GatherFaultsCtx) and the call returns no FaultReport alongside the
// cancellation error. Verdict counters and a completion event are
// reported into sc.
func RunSchemeFaultsCtx(ctx context.Context, sc obs.Scope, s core.Scheme, inst core.Instance, plan faults.Plan) (*FaultReport, error) {
	labels, err := s.Prover.Certify(inst)
	if err != nil {
		return nil, fmt.Errorf("prover: %w", err)
	}
	l, err := core.NewLabeled(inst, labels)
	if err != nil {
		return nil, err
	}
	views, stats, rep, err := GatherFaultsCtx(ctx, sc, l, s.Decoder.Rounds(), plan)
	if err != nil {
		return nil, err
	}
	verdicts := make([]core.Verdict, len(views))
	for v, mu := range views {
		if mu == nil {
			verdicts[v] = core.VerdictCrashed
			continue
		}
		if s.Decoder.Anonymous() {
			mu = mu.Anonymize()
		}
		if s.Decoder.Decide(mu) {
			verdicts[v] = core.VerdictAccept
		} else {
			verdicts[v] = core.VerdictReject
		}
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
	if sc.EventsEnabled() {
		accepted, rejected, crashed := fr.Counts()
		sc.EmitEvent(obs.LevelInfo, "sim.run.done",
			obs.Fi("nodes", int64(len(verdicts))),
			obs.Fi("accepted", int64(accepted)),
			obs.Fi("rejected", int64(rejected)),
			obs.Fi("crashed", int64(crashed)),
			obs.F("faults", rep.Summary()))
	}
	return fr, nil
}

// barrier is a reusable generation barrier for the round synchronizer.
// Crashed nodes leave permanently; the remaining parties keep cycling.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	arrived int
	gen     uint64
}

func newBarrier(parties int) *barrier {
	b := &barrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until all current parties have arrived, then releases the
// generation together.
func (b *barrier) wait() {
	b.mu.Lock()
	gen := b.gen
	b.arrived++
	if b.arrived >= b.parties {
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// leave permanently removes one party (a crash-stopped node). If the
// remaining parties have all already arrived, the generation is released.
func (b *barrier) leave() {
	b.mu.Lock()
	b.parties--
	if b.parties > 0 && b.arrived >= b.parties {
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
	}
	b.mu.Unlock()
}
