package sanitize

import (
	"fmt"
	"strings"
	"time"
)

// Watchdog probe: deadlock and starvation detection for the barriers the
// parallel pipelines synchronize on. A wait group a worker never reaches,
// a worker blocked on a channel nobody drains, or a work-stealing loop
// that starves all make the pipeline hang rather than fail; under
// `go test` that surfaces as a 10-minute timeout with no attribution. The
// watchdog bounds the wait and, on expiry, captures every goroutine stack
// so the blocked barrier is named in the failure instead of inferred from
// a panic dump.

// StallReport describes a probed call that failed to return in time.
type StallReport struct {
	// Timeout is the budget the call exceeded.
	Timeout time.Duration
	// Goroutines is the full goroutine set at expiry — the blocked
	// barrier, its workers, and their scheduler states.
	Goroutines []GoroutineInfo
}

// Error implements error, listing non-running goroutines first since the
// blocked ones carry the attribution.
func (r *StallReport) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "watchdog: probed call still running after %v; %d goroutine(s) live", r.Timeout, len(r.Goroutines))
	for _, g := range r.Goroutines {
		fmt.Fprintf(&b, "\n  goroutine %d [%s] at %s", g.ID, g.State, g.Top)
		if g.CreatedBy != "" {
			fmt.Fprintf(&b, " (created by %s)", g.CreatedBy)
		}
	}
	return b.String()
}

// Blocked returns the goroutines waiting on synchronization — the
// interesting suspects in a deadlock (semacquire is a mutex or WaitGroup,
// "chan receive"/"chan send" an undrained channel).
func (r *StallReport) Blocked() []GoroutineInfo {
	var out []GoroutineInfo
	for _, g := range r.Goroutines {
		switch {
		case strings.HasPrefix(g.State, "semacquire"),
			strings.HasPrefix(g.State, "sync.WaitGroup.Wait"),
			strings.HasPrefix(g.State, "chan "),
			strings.HasPrefix(g.State, "select"):
			out = append(out, g)
		}
	}
	return out
}

// Watch runs f under a deadline. It returns nil when f finishes in time
// and a StallReport with full stack attribution when it does not.
//
// On expiry f's goroutine is abandoned, not killed — Go offers no
// preemption — so a tripped watchdog means the process is already wedged;
// the report's job is to say where. Use from tests and probe harnesses,
// with a timeout far above any honest runtime of the probed call.
func Watch(timeout time.Duration, f func()) *StallReport {
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-done:
		return nil
	case <-t.C:
		return &StallReport{Timeout: timeout, Goroutines: goroutineSnapshot()}
	}
}
