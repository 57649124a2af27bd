package sanitize

import (
	"context"
	"time"

	"hidinglcp/internal/core"
	"hidinglcp/internal/faults"
	"hidinglcp/internal/obs"
	"hidinglcp/internal/sim"
	"hidinglcp/internal/view"
)

// ProbeGatherFaults runs the fault-injected gather under the goroutine-leak
// probe. The scheduler's contract is that every per-node goroutine — the
// crashed ones included, which leave the round barrier early — has exited
// by the time GatherFaultsCtx returns; a non-nil LeakReport is a contract
// violation regardless of err.
func ProbeGatherFaults(l core.Labeled, r int, plan faults.Plan) ([]*view.View, sim.Stats, *faults.Report, *LeakReport, error) {
	var views []*view.View
	var stats sim.Stats
	var rep *faults.Report
	var err error
	leak := LeakCheck(func() {
		views, stats, rep, err = sim.GatherFaultsCtx(context.Background(), obs.Scope{}, l, r, plan)
	})
	return views, stats, rep, leak, err
}

// WatchGatherFaults runs the fault-injected gather under the watchdog. The
// round barrier must release every party no matter which combination of
// crashes, drops, and delays the plan injects; a StallReport names the
// blocked barrier when it does not.
func WatchGatherFaults(timeout time.Duration, l core.Labeled, r int, plan faults.Plan) (*StallReport, error) {
	var err error
	stall := Watch(timeout, func() {
		_, _, _, err = sim.GatherFaultsCtx(context.Background(), obs.Scope{}, l, r, plan)
	})
	if stall != nil {
		// The probed call never returned; its error is unknowable.
		return stall, nil
	}
	return nil, err
}
