package export

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hidinglcp/internal/decoders"
	"hidinglcp/internal/nbhd"
	"hidinglcp/internal/obs"
)

// newTestServer wires a handler over live telemetry for httptest.
func newTestServer(t *testing.T, opts ServerOptions, ready, closing <-chan struct{}) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewHandler(opts, ready, closing))
	t.Cleanup(srv.Close)
	return srv
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestServerMetricsEndpoint scrapes /metrics and runs the mini-parser over
// the body: parseable text format with the live registry's families.
func TestServerMetricsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("demo.hits").Add(3)
	reg.Histogram("demo.lat_ns").Observe(1000)
	srv := newTestServer(t, ServerOptions{Registry: reg}, nil, nil)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type = %q, want the 0.0.4 text format", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	fams := parsePromText(t, string(body))
	if fams["demo_hits"] == nil || fams["demo_hits"].typ != "counter" || fams["demo_hits"].samples[0].value != 3 {
		t.Errorf("families = %+v", fams)
	}
	if fams["demo_lat_ns"] == nil || fams["demo_lat_ns"].typ != "histogram" {
		t.Errorf("histogram family missing: %+v", fams)
	}
}

// TestServerHealthAndReady: /healthz is always 200; /readyz flips on the
// ready channel.
func TestServerHealthAndReady(t *testing.T) {
	ready := make(chan struct{})
	srv := newTestServer(t, ServerOptions{Registry: obs.NewRegistry()}, ready, nil)

	if code, body := get(t, srv.URL+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, _ := get(t, srv.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz before ready = %d, want 503", code)
	}
	close(ready)
	if code, body := get(t, srv.URL+"/readyz"); code != 200 || !strings.Contains(body, "ready") {
		t.Errorf("/readyz after ready = %d %q", code, body)
	}
}

// TestServerTraceEndpoint: /trace returns the ring-buffered span dump as
// JSON.
func TestServerTraceEndpoint(t *testing.T) {
	tr := obs.NewTracer(16)
	sp := tr.Start("phase.one", nil)
	sp.SetAttr("shards", "8")
	sp.End()
	srv := newTestServer(t, ServerOptions{Registry: obs.NewRegistry(), Tracer: tr}, nil, nil)

	code, body := get(t, srv.URL+"/trace")
	if code != 200 {
		t.Fatalf("/trace = %d", code)
	}
	var doc struct {
		Spans []obs.SpanRecord `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/trace body is not JSON: %v\n%s", err, body)
	}
	if len(doc.Spans) != 1 || doc.Spans[0].Name != "phase.one" {
		t.Errorf("spans = %+v", doc.Spans)
	}
}

// TestServerEventsSSE pins the /events framing: the retained tail replays
// as "event: log" + "data: <json>" + blank line, then live events stream.
func TestServerEventsSSE(t *testing.T) {
	log, err := NewEventLog(EventLogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	log.EmitLogEvent(obs.LogEvent{TimeUnixNS: 1e9, Level: obs.LevelInfo, Name: "replayed.one", Run: "r"})
	log.EmitLogEvent(obs.LogEvent{TimeUnixNS: 2e9, Level: obs.LevelInfo, Name: "replayed.two", Run: "r"})

	srv := newTestServer(t, ServerOptions{Registry: obs.NewRegistry(), Events: log}, nil, nil)
	resp, err := http.Get(srv.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}

	reader := bufio.NewReader(resp.Body)
	readFrame := func() (string, obs.LogEvent) {
		t.Helper()
		var eventLine, dataLine string
		for {
			line, err := reader.ReadString('\n')
			if err != nil {
				t.Fatalf("stream ended early: %v", err)
			}
			line = strings.TrimRight(line, "\n")
			switch {
			case line == "":
				if dataLine == "" {
					continue // end of a comment-only frame
				}
				var ev obs.LogEvent
				if err := json.Unmarshal([]byte(strings.TrimPrefix(dataLine, "data: ")), &ev); err != nil {
					t.Fatalf("data line is not JSON: %q: %v", dataLine, err)
				}
				return eventLine, ev
			case strings.HasPrefix(line, ":"):
				continue // comment (stream-open marker, heartbeats)
			case strings.HasPrefix(line, "event: "):
				eventLine = line
			case strings.HasPrefix(line, "data: "):
				dataLine = line
			default:
				t.Fatalf("unexpected SSE line %q", line)
			}
		}
	}

	evLine, first := readFrame()
	if evLine != "event: log" || first.Name != "replayed.one" {
		t.Errorf("first frame = %q %+v", evLine, first)
	}
	if _, second := readFrame(); second.Name != "replayed.two" {
		t.Errorf("second frame = %+v", second)
	}

	// A live emission after attach arrives over the same stream.
	go log.EmitLogEvent(obs.LogEvent{TimeUnixNS: 3e9, Level: obs.LevelWarn, Name: "live.three", Run: "r"})
	if _, live := readFrame(); live.Name != "live.three" || live.Level != obs.LevelWarn {
		t.Errorf("live frame = %+v", live)
	}
}

// TestServerEventsStreamEndsOnClose: closing the server-side channel ends
// the stream instead of hanging the client.
func TestServerEventsStreamEndsOnClose(t *testing.T) {
	log, err := NewEventLog(EventLogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	closing := make(chan struct{})
	srv := newTestServer(t, ServerOptions{Registry: obs.NewRegistry(), Events: log}, nil, closing)

	resp, err := http.Get(srv.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	close(closing)
	done := make(chan struct{})
	go func() {
		io.ReadAll(resp.Body) //nolint:errcheck
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("/events stream did not end on server close")
	}
}

// TestServeLifecycle exercises the real listener: bind :0, scrape, mark
// ready, graceful close, double close.
func TestServeLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("c").Inc()
	s, err := Serve("127.0.0.1:0", ServerOptions{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := get(t, "http://"+s.Addr()+"/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readyz before MarkReady = %d", code)
	}
	s.MarkReady()
	s.MarkReady() // idempotent
	if code, _ := get(t, "http://"+s.Addr()+"/readyz"); code != 200 {
		t.Errorf("readyz after MarkReady = %d", code)
	}
	if code, body := get(t, "http://"+s.Addr()+"/metrics"); code != 200 {
		t.Errorf("/metrics = %d %q", code, body)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := http.Get("http://" + s.Addr() + "/healthz"); err == nil {
		t.Error("server still accepting connections after Close")
	}
}

// TestServerDebugVars pins the /debug/vars shape: a JSON object whose
// "hidinglcp.metrics" member is the registry snapshot, computed per request.
func TestServerDebugVars(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("demo.count").Add(7)
	srv := newTestServer(t, ServerOptions{Registry: reg}, nil, nil)

	readVars := func() []obs.MetricSnapshot {
		t.Helper()
		code, body := get(t, srv.URL+"/debug/vars")
		if code != http.StatusOK {
			t.Fatalf("/debug/vars status = %d", code)
		}
		var doc struct {
			Metrics []obs.MetricSnapshot `json:"hidinglcp.metrics"`
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatal(err)
		}
		return doc.Metrics
	}

	got := readVars()
	if len(got) != 1 || got[0].Name != "demo.count" || got[0].Value != 7 {
		t.Errorf("snapshot = %+v", got)
	}
	// Live: a later scrape sees later registry state, no expvar caching.
	reg.Counter("demo.count").Add(3)
	if got := readVars(); got[0].Value != 10 {
		t.Errorf("second snapshot = %+v, want value 10", got)
	}
}

// TestServerPprofIndex checks the pprof index is wired on the server's own
// mux (not http.DefaultServeMux).
func TestServerPprofIndex(t *testing.T) {
	srv := newTestServer(t, ServerOptions{Registry: obs.NewRegistry()}, nil, nil)
	code, body := get(t, srv.URL+"/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status = %d", code)
	}
	if body == "" {
		t.Error("pprof index returned an empty body")
	}
}

// TestServeIsolatedRegistries runs two servers in one process and checks
// each serves its own registry: every server owns its mux, so neither can
// hijack the other's routes.
func TestServeIsolatedRegistries(t *testing.T) {
	mk := func(name string, v int64) *Server {
		reg := obs.NewRegistry()
		reg.Counter(name).Add(v)
		s, err := Serve("127.0.0.1:0", ServerOptions{Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	a, b := mk("server.a", 1), mk("server.b", 2)
	for _, tc := range []struct {
		s    *Server
		want string
	}{{a, "server.a"}, {b, "server.b"}} {
		_, body := get(t, "http://"+tc.s.Addr()+"/debug/vars")
		var doc struct {
			Metrics []obs.MetricSnapshot `json:"hidinglcp.metrics"`
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("%s: %v", tc.s.Addr(), err)
		}
		if len(doc.Metrics) != 1 || doc.Metrics[0].Name != tc.want {
			t.Errorf("server %s serves %+v, want its own counter %q", tc.s.Addr(), doc.Metrics, tc.want)
		}
	}
}

// TestConcurrentScrapeHammer scrapes /metrics, /trace, and /debug/vars
// from many goroutines while metrics, spans, and events mutate underneath
// — the data-race probe for the whole read path (run under -race in CI;
// see also TestServerScrapeDuringLiveBuild which drives a real pipeline).
func TestConcurrentScrapeHammer(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(64)
	log, err := NewEventLog(EventLogConfig{MaxPerSec: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	srv := newTestServer(t, ServerOptions{Registry: reg, Tracer: tr, Events: log}, nil, nil)

	stop := make(chan struct{})
	var writers sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			reg.Counter("hammer.count").Inc()
			reg.Histogram("hammer.lat").Observe(int64(i % 1000))
			sp := tr.Start("hammer.span", nil)
			sp.End()
			log.EmitLogEvent(obs.LogEvent{TimeUnixNS: int64(i), Level: obs.LevelInfo, Name: "hammer"})
		}
	}()

	var scrapers sync.WaitGroup
	for w := 0; w < 4; w++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for i := 0; i < 25; i++ {
				for _, path := range []string{"/metrics", "/trace", "/debug/vars", "/healthz"} {
					resp, err := http.Get(srv.URL + path)
					if err != nil {
						t.Errorf("%s: %v", path, err)
						return
					}
					io.ReadAll(resp.Body) //nolint:errcheck
					resp.Body.Close()
				}
			}
		}()
	}
	scrapers.Wait()
	close(stop)
	writers.Wait()
}

// TestServerScrapeDuringLiveBuild is the acceptance check for live
// telemetry: a real sharded neighborhood build runs with the server's
// registry, tracer, and event log attached while /metrics is scraped
// concurrently, and every scrape must parse as Prometheus text format.
// Run under -race this doubles as the pipeline-vs-scrape race probe.
func TestServerScrapeDuringLiveBuild(t *testing.T) {
	tr := obs.NewTracer(256)
	log, err := NewEventLog(EventLogConfig{MaxPerSec: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	sc := obs.NewScope().WithTracer(tr).WithEvents(log, obs.NewRunID("test"))
	srv := newTestServer(t, ServerOptions{Registry: sc.Registry(), Tracer: tr, Events: log}, nil, nil)

	done := make(chan error, 1)
	go func() {
		s := decoders.DegreeOne()
		fam := decoders.DegOneFamily(3)
		_, err := nbhd.BuildShardedCtx(context.Background(), sc, s.Decoder, nbhd.ShardedAllLabelings(decoders.DegOneAlphabet(), fam...), 8, 4)
		done <- err
	}()

	var scrapers sync.WaitGroup
	for w := 0; w < 3; w++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for i := 0; i < 20; i++ {
				code, body := get(t, srv.URL+"/metrics")
				if code != 200 {
					t.Errorf("/metrics during build = %d", code)
					return
				}
				parsePromText(t, body)
			}
		}()
	}
	scrapers.Wait()
	if err := <-done; err != nil {
		t.Fatalf("build failed: %v", err)
	}

	// The finished build's counters appear on a final scrape.
	_, body := get(t, srv.URL+"/metrics")
	fams := parsePromText(t, body)
	if fams["nbhd_views_extracted"] == nil || fams["nbhd_views_extracted"].samples[0].value == 0 {
		t.Errorf("post-build scrape missing build counters:\n%s", body)
	}
}
