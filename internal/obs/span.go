package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// defaultTraceCapacity bounds the span ring when NewTracer is given no
// explicit capacity.
const defaultTraceCapacity = 4096

// SpanRecord is one completed span, as retained by the Tracer and
// serialized into traces and manifests. Parent is 0 for root spans.
type SpanRecord struct {
	ID          uint64 `json:"id"`
	Parent      uint64 `json:"parent,omitempty"`
	Name        string `json:"name"`
	StartUnixNS int64  `json:"start_unix_ns"`
	DurationNS  int64  `json:"duration_ns"`
	Attrs       []Attr `json:"attrs,omitempty"`
}

// Attr is one span attribute. Attributes keep slice form (not a map) so
// records serialize in the order they were set.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Tracer records spans into a fixed-capacity ring buffer: when a run
// produces more than the capacity, the oldest records are dropped and
// counted, so tracing a multi-minute sweep stays bounded. Safe for
// concurrent use by the shard workers.
type Tracer struct {
	mu     sync.Mutex
	nextID uint64

	spans     []SpanRecord
	spanNext  int
	spanCount int
	dropped   int64
	capacity  int
}

// NewTracer returns a tracer whose span ring holds capacity records (<= 0
// selects the default of 4096).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = defaultTraceCapacity
	}
	return &Tracer{
		spans:    make([]SpanRecord, capacity),
		capacity: capacity,
	}
}

// Span is one in-flight span. The nil span — what a tracer-less Scope hands
// out — accepts every method, so call sites never branch.
type Span struct {
	tr     *Tracer
	id     uint64
	parent uint64
	name   string
	start  time.Time
	attrs  []Attr
}

// Start opens a span under parent (nil for a root span).
func (t *Tracer) Start(name string, parent *Span) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	var parentID uint64
	if parent != nil {
		parentID = parent.id
	}
	return &Span{tr: t, id: id, parent: parentID, name: name, start: time.Now()}
}

// SetAttr attaches a key/value pair to the span. Spans are single-owner
// until End, so attributes need no locking.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// End completes the span and records it in the tracer's ring.
func (s *Span) End() {
	if s == nil {
		return
	}
	rec := SpanRecord{
		ID:          s.id,
		Parent:      s.parent,
		Name:        s.name,
		StartUnixNS: s.start.UnixNano(),
		DurationNS:  int64(time.Since(s.start)),
		Attrs:       s.attrs,
	}
	t := s.tr
	t.mu.Lock()
	if t.spanCount == t.capacity {
		t.dropped++
	} else {
		t.spanCount++
	}
	t.spans[t.spanNext] = rec
	t.spanNext = (t.spanNext + 1) % t.capacity
	t.mu.Unlock()
}

// Spans returns the retained span records, oldest first.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, t.spanCount)
	start := (t.spanNext - t.spanCount + t.capacity) % t.capacity
	for i := 0; i < t.spanCount; i++ {
		out = append(out, t.spans[(start+i)%t.capacity])
	}
	return out
}

// Dropped returns how many span records were evicted from the full ring.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// trace is the JSON shape WriteJSON emits.
type trace struct {
	Spans   []SpanRecord `json:"spans"`
	Dropped int64        `json:"dropped,omitempty"`
}

// WriteJSON serializes the retained spans.
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(trace{Spans: t.Spans(), Dropped: t.Dropped()})
}
