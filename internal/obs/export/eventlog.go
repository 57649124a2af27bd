package export

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"hidinglcp/internal/obs"
)

// Event-log defaults; Config fields override each.
const (
	defaultEventRing    = 1024
	defaultEventMaxSize = 8 << 20 // 8 MiB per JSONL generation before rotation
	defaultEventsPerSec = 1000
)

// EventLogConfig configures an EventLog. The zero value is a memory-only
// log (ring but no file) with default limits.
type EventLogConfig struct {
	// Path is the JSONL destination; "" keeps the log memory-only (the
	// ring still feeds Tail and the /events SSE stream).
	Path string
	// MaxBytes rotates the file when a generation exceeds it (<= 0 selects
	// 8 MiB). Rotation keeps exactly one predecessor at Path + ".1".
	MaxBytes int64
	// MaxPerSec drops events beyond this emission rate per wall-clock
	// second (<= 0 selects 1000). Drops are counted and summarized with a
	// synthetic "obs.events.ratelimited" warning when the window rolls.
	MaxPerSec int
	// Ring is the in-memory tail length (<= 0 selects 1024).
	Ring int
	// MinLevel filters events below it ("" keeps everything).
	MinLevel obs.Level
}

// EventLog is the structured JSONL event sink: leveled obs.LogEvents with
// run/phase/span correlation IDs, one JSON object per line, rate-limited
// and size-rotated, with an in-memory ring tail for /events subscribers.
// It implements obs.EventSink; attach it with Scope.WithEvents.
//
// The log is transport, not policy: emitters own redaction (obs.Redact*)
// before any certificate-derived value reaches a field, which is what
// keeps certflow's hiding contract intact across this file format too.
type EventLog struct {
	cfg EventLogConfig

	mu      sync.Mutex
	f       *os.File
	written int64

	ring  []obs.LogEvent
	next  int
	count int

	window     int64 // unix second of the current rate-limit window
	inWindow   int
	rateDrops  int64 // drops inside the current window
	dropped    int64 // total rate-limit drops
	writeErr   error // first file write/rotation error, surfaced by Close
	subs       map[int]chan obs.LogEvent
	nextSub    int
	subDropped int64
}

// NewEventLog opens the log, creating (or truncating) cfg.Path when set.
func NewEventLog(cfg EventLogConfig) (*EventLog, error) {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = defaultEventMaxSize
	}
	if cfg.MaxPerSec <= 0 {
		cfg.MaxPerSec = defaultEventsPerSec
	}
	if cfg.Ring <= 0 {
		cfg.Ring = defaultEventRing
	}
	l := &EventLog{
		cfg:  cfg,
		ring: make([]obs.LogEvent, cfg.Ring),
		subs: map[int]chan obs.LogEvent{},
	}
	if cfg.Path != "" {
		f, err := os.Create(cfg.Path)
		if err != nil {
			return nil, fmt.Errorf("opening event log: %w", err)
		}
		l.f = f
	}
	return l, nil
}

// EmitLogEvent appends one event: level filter, rate-limit guard, ring,
// file, subscribers. Safe for concurrent use; never blocks beyond the
// serialized append (subscriber channels drop rather than block).
func (l *EventLog) EmitLogEvent(ev obs.LogEvent) {
	if l == nil {
		return
	}
	if l.cfg.MinLevel != "" && ev.Level.Rank() < l.cfg.MinLevel.Rank() {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()

	// Rate-limit window keyed by the event's own second, so the guard is
	// a pure function of the stream (and testable with synthetic times).
	sec := ev.TimeUnixNS / 1e9
	if sec != l.window {
		if l.rateDrops > 0 {
			l.append(obs.LogEvent{
				TimeUnixNS: ev.TimeUnixNS,
				Level:      obs.LevelWarn,
				Name:       "obs.events.ratelimited",
				Run:        ev.Run,
				Fields:     []obs.Attr{obs.Fi("dropped", l.rateDrops)},
			})
			l.rateDrops = 0
		}
		l.window = sec
		l.inWindow = 0
	}
	l.inWindow++
	if l.inWindow > l.cfg.MaxPerSec {
		l.rateDrops++
		l.dropped++
		return
	}
	l.append(ev)
}

// append writes one admitted event to every destination. Caller holds mu.
func (l *EventLog) append(ev obs.LogEvent) {
	l.ring[l.next] = ev
	l.next = (l.next + 1) % len(l.ring)
	if l.count < len(l.ring) {
		l.count++
	}
	if l.f != nil {
		line, err := json.Marshal(ev)
		if err == nil {
			line = append(line, '\n')
			_, err = l.f.Write(line)
			l.written += int64(len(line))
		}
		if err == nil && l.written > l.cfg.MaxBytes {
			err = l.rotate()
		}
		if err != nil && l.writeErr == nil {
			l.writeErr = err
		}
	}
	for _, ch := range l.subs {
		select {
		case ch <- ev:
		default:
			l.subDropped++
		}
	}
}

// rotate closes the current generation, keeps it at Path + ".1"
// (overwriting any older predecessor), and reopens Path fresh.
func (l *EventLog) rotate() error {
	if err := l.f.Close(); err != nil {
		return err
	}
	if err := os.Rename(l.cfg.Path, l.cfg.Path+".1"); err != nil {
		return err
	}
	f, err := os.Create(l.cfg.Path)
	if err != nil {
		return err
	}
	l.f = f
	l.written = 0
	return nil
}

// Tail returns up to n of the most recent admitted events, oldest first
// (n <= 0 returns the whole retained ring).
func (l *EventLog) Tail(n int) []obs.LogEvent {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if n <= 0 || n > l.count {
		n = l.count
	}
	out := make([]obs.LogEvent, 0, n)
	start := (l.next - n + len(l.ring)) % len(l.ring)
	for i := 0; i < n; i++ {
		out = append(out, l.ring[(start+i)%len(l.ring)])
	}
	return out
}

// Subscribe registers a live feed of admitted events with the given
// channel buffer (<= 0 selects 64). Events that would block are dropped
// for that subscriber only. The returned cancel function unregisters and
// closes the channel; it is safe to call more than once.
func (l *EventLog) Subscribe(buf int) (<-chan obs.LogEvent, func()) {
	if buf <= 0 {
		buf = 64
	}
	ch := make(chan obs.LogEvent, buf)
	l.mu.Lock()
	id := l.nextSub
	l.nextSub++
	l.subs[id] = ch
	l.mu.Unlock()
	return ch, func() {
		// Whoever removes the registration closes the channel — exactly one
		// of cancel and Close wins, so double cancel and cancel-after-Close
		// are both safe.
		l.mu.Lock()
		_, present := l.subs[id]
		delete(l.subs, id)
		l.mu.Unlock()
		if present {
			close(ch)
		}
	}
}

// Close flushes and closes the file generation and reports the first
// write or rotation error the log swallowed while appending. Subscribers
// are closed so SSE tails terminate.
func (l *EventLog) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for id, ch := range l.subs {
		delete(l.subs, id)
		close(ch)
	}
	err := l.writeErr
	if l.f != nil {
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		l.f = nil
	}
	return err
}
