package export

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"hidinglcp/internal/obs"
)

// ev builds a synthetic event at a fixed time (seconds, sequence).
func ev(sec int64, name string) obs.LogEvent {
	return obs.LogEvent{TimeUnixNS: sec * 1e9, Level: obs.LevelInfo, Name: name, Run: "test-run"}
}

// TestEventLogJSONL checks the on-disk shape: one valid JSON object per
// line, fields round-tripping.
func TestEventLogJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	l, err := NewEventLog(EventLogConfig{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	l.EmitLogEvent(obs.LogEvent{
		TimeUnixNS: 42, Level: obs.LevelInfo, Name: "nbhd.build.start",
		Run: "r1", Phase: "scheme=even-cycle", Span: 7,
		Fields: []obs.Attr{obs.F("shards", "8"), obs.Fi("workers", 2)},
	})
	l.EmitLogEvent(ev(1, "second"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []obs.LogEvent
	scan := bufio.NewScanner(f)
	for scan.Scan() {
		var e obs.LogEvent
		if err := json.Unmarshal(scan.Bytes(), &e); err != nil {
			t.Fatalf("line %q is not valid JSON: %v", scan.Text(), err)
		}
		lines = append(lines, e)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	got := lines[0]
	if got.Name != "nbhd.build.start" || got.Run != "r1" || got.Phase != "scheme=even-cycle" ||
		got.Span != 7 || len(got.Fields) != 2 || got.Fields[1].Value != "2" {
		t.Errorf("round-tripped event = %+v", got)
	}
}

// TestEventLogRotation drives the log past MaxBytes and checks one
// predecessor generation survives at path.1 while path restarts fresh.
func TestEventLogRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	l, err := NewEventLog(EventLogConfig{Path: path, MaxBytes: 512, MaxPerSec: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		l.EmitLogEvent(ev(int64(i), "rotation-filler-event-with-some-padding"))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	cur, err := os.Stat(path)
	if err != nil {
		t.Fatalf("current generation missing: %v", err)
	}
	prev, err := os.Stat(path + ".1")
	if err != nil {
		t.Fatalf("rotated generation missing: %v", err)
	}
	if cur.Size() > 512+256 {
		t.Errorf("current generation %d bytes; rotation never triggered", cur.Size())
	}
	if prev.Size() == 0 {
		t.Error("rotated generation is empty")
	}
}

// TestEventLogRateLimit: events beyond MaxPerSec within one second are
// dropped and summarized when the window rolls.
func TestEventLogRateLimit(t *testing.T) {
	l, err := NewEventLog(EventLogConfig{MaxPerSec: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		l.EmitLogEvent(ev(100, "burst"))
	}
	if got := l.Dropped(); got != 7 {
		t.Errorf("dropped = %d, want 7", got)
	}
	// Rolling the window admits again and emits the summary event.
	l.EmitLogEvent(ev(101, "after"))
	tail := l.Tail(0)
	var sawSummary, sawAfter bool
	for _, e := range tail {
		if e.Name == "obs.events.ratelimited" {
			sawSummary = true
			if len(e.Fields) != 1 || e.Fields[0].Value != "7" {
				t.Errorf("ratelimited summary fields = %+v", e.Fields)
			}
		}
		if e.Name == "after" {
			sawAfter = true
		}
	}
	if !sawSummary || !sawAfter {
		t.Errorf("tail = %+v, want ratelimited summary and the post-window event", tail)
	}
	l.Close()
}

// TestEventLogMinLevel filters below the configured level.
func TestEventLogMinLevel(t *testing.T) {
	l, err := NewEventLog(EventLogConfig{MinLevel: obs.LevelWarn})
	if err != nil {
		t.Fatal(err)
	}
	l.EmitLogEvent(obs.LogEvent{TimeUnixNS: 1, Level: obs.LevelDebug, Name: "nope"})
	l.EmitLogEvent(obs.LogEvent{TimeUnixNS: 2, Level: obs.LevelError, Name: "yep"})
	tail := l.Tail(0)
	if len(tail) != 1 || tail[0].Name != "yep" {
		t.Errorf("tail = %+v", tail)
	}
	l.Close()
}

// TestEventLogTailAndSubscribe: the ring replays oldest-first and live
// subscribers receive subsequent events; cancel after Close is safe.
func TestEventLogTailAndSubscribe(t *testing.T) {
	l, err := NewEventLog(EventLogConfig{Ring: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		l.EmitLogEvent(ev(int64(i), "e"))
	}
	tail := l.Tail(0)
	if len(tail) != 4 || tail[0].TimeUnixNS != 2e9 || tail[3].TimeUnixNS != 5e9 {
		t.Errorf("tail = %+v, want the 4 newest oldest-first", tail)
	}
	if short := l.Tail(2); len(short) != 2 || short[1].TimeUnixNS != 5e9 {
		t.Errorf("Tail(2) = %+v", short)
	}

	feed, cancel := l.Subscribe(4)
	l.EmitLogEvent(ev(9, "live"))
	got := <-feed
	if got.Name != "live" {
		t.Errorf("subscriber got %+v", got)
	}
	l.Close()
	if _, ok := <-feed; ok {
		t.Error("feed still open after Close")
	}
	cancel() // must not panic after Close already closed the channel
}

// TestEventLogConcurrentEmit hammers the log from many goroutines (run
// under -race in CI) and checks nothing is lost below the rate limit.
func TestEventLogConcurrentEmit(t *testing.T) {
	l, err := NewEventLog(EventLogConfig{Ring: 4096, MaxPerSec: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const workers, each = 8, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.EmitLogEvent(ev(int64(w), "concurrent"))
			}
		}(w)
	}
	wg.Wait()
	if got := len(l.Tail(0)); got != workers*each {
		t.Errorf("retained %d events, want %d", got, workers*each)
	}
	l.Close()
}

// TestEventLogSurfacesWriteErrors: writing to a closed file is reported by
// Close instead of vanishing.
func TestEventLogSurfacesWriteErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	l, err := NewEventLog(EventLogConfig{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	l.f.Close() // sabotage the generation behind the log's back
	l.EmitLogEvent(ev(1, "fails"))
	if err := l.Close(); err == nil {
		t.Error("Close returned nil after a failed append")
	}
}

// Dropped returns the total events discarded by the rate limiter.
func (l *EventLog) Dropped() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}
