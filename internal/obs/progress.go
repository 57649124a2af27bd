package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"hidinglcp/internal/cancel"
)

// defaultProgressInterval paces the periodic status lines.
const defaultProgressInterval = 2 * time.Second

// Progress prints periodic single-line status reports — units done/total,
// percentage, elapsed time, ETA, plus an optional live detail string — for
// long-running phases like sharded builds and exhaustive sweeps. One
// Progress serves a whole run: each pipeline opens a phase (StartPhase),
// bumps the done count as shards finish (Add), and closes it (EndPhase),
// which prints a final line.
//
// The nil Progress accepts every method, so pipelines report
// unconditionally and only a CLI's -progress flag makes lines appear.
// Progress is safe for concurrent use; Add is a single atomic increment.
type Progress struct {
	w        io.Writer
	interval time.Duration

	done atomic.Int64

	mu     sync.Mutex
	label  string
	total  int64
	start  time.Time
	active bool
	extra  func() string

	stop chan struct{}
	wait func() // returns once the ticker goroutine has exited
}

// NewProgress returns a running reporter writing to w every interval
// (<= 0 selects 2s). Close it to stop the ticker goroutine.
func NewProgress(w io.Writer, interval time.Duration) *Progress {
	if interval <= 0 {
		interval = defaultProgressInterval
	}
	p := &Progress{w: w, interval: interval, stop: make(chan struct{})}
	p.wait = cancel.Go(1, func(int) { p.loop() })
	return p
}

func (p *Progress) loop() {
	ticker := time.NewTicker(p.interval)
	defer ticker.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-ticker.C:
			p.emit(false)
		}
	}
}

// StartPhase opens a phase of total units (0 when unknown; the line then
// omits percentage and ETA) and resets the done count and detail callback.
func (p *Progress) StartPhase(label string, total int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.label = label
	p.total = total
	p.start = time.Now()
	p.active = true
	p.extra = nil
	p.mu.Unlock()
	p.done.Store(0)
}

// SetExtra installs a callback rendered at each report; it must be safe to
// call from the ticker goroutine (read atomics, not plain fields).
func (p *Progress) SetExtra(f func() string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.extra = f
	p.mu.Unlock()
}

// Add records n completed units of the current phase.
func (p *Progress) Add(n int64) {
	if p == nil {
		return
	}
	p.done.Add(n)
}

// EndPhase prints the phase's final line and deactivates reporting until
// the next StartPhase.
func (p *Progress) EndPhase() {
	if p == nil {
		return
	}
	p.emit(true)
	p.mu.Lock()
	p.active = false
	p.extra = nil
	p.mu.Unlock()
}

// Close stops the ticker goroutine. The Progress must not be used after.
func (p *Progress) Close() {
	if p == nil {
		return
	}
	close(p.stop)
	p.wait()
}

// emit renders one status line while a phase is active.
func (p *Progress) emit(final bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.active {
		return
	}
	done := p.done.Load()
	elapsed := time.Since(p.start)
	line := fmt.Sprintf("progress: %s %d", p.label, done)
	if p.total > 0 {
		line += fmt.Sprintf("/%d (%.1f%%)", p.total, 100*float64(done)/float64(p.total))
	}
	line += fmt.Sprintf(" elapsed %s", roundDuration(elapsed))
	if final {
		line += " done"
	} else if p.total > 0 && done > 0 && done < p.total {
		eta := time.Duration(float64(elapsed) * float64(p.total-done) / float64(done))
		line += fmt.Sprintf(" eta %s", roundDuration(eta))
	}
	if p.extra != nil {
		if detail := p.extra(); detail != "" {
			line += " — " + detail
		}
	}
	fmt.Fprintln(p.w, line)
}

// roundDuration trims durations to a readable precision.
func roundDuration(d time.Duration) time.Duration {
	switch {
	case d >= time.Minute:
		return d.Round(time.Second)
	case d >= time.Second:
		return d.Round(100 * time.Millisecond)
	default:
		return d.Round(time.Millisecond)
	}
}
