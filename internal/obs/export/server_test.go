package export

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"hidinglcp/internal/decoders"
	"hidinglcp/internal/nbhd"
	"hidinglcp/internal/obs"
)

// newTestServer wires a handler over live telemetry for httptest.
func newTestServer(t *testing.T, opts ServerOptions, ready <-chan struct{}) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewHandler(opts, ready))
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
	srv := newTestServer(t, ServerOptions{Registry: reg}, nil)

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
	srv := newTestServer(t, ServerOptions{Registry: obs.NewRegistry()}, ready)

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
	srv := newTestServer(t, ServerOptions{Registry: obs.NewRegistry(), Tracer: tr}, nil)

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
	checkServeGone(t)

	// Closed before its Serve goroutine has had a chance to run.
	s, err = Serve("127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close right after Serve: %v", err)
	}
	checkServeGone(t)
}

// checkServeGone fails t if a goroutine is still inside Serve's goroutine
// or http.Server.Serve. It takes one dump of every goroutine, with no
// grace period: once Close has returned, that goroutine must be gone.
func checkServeGone(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	if strings.Contains(stacks, "obs/export.Serve.") || strings.Contains(stacks, "net/http.(*Server).Serve(") {
		t.Errorf("Serve's goroutine outlived Close:\n%s", stacks)
	}
}

// TestServerDebugVars pins the /debug/vars shape: a JSON object whose
// "hidinglcp.metrics" member is the registry snapshot, computed per request.
func TestServerDebugVars(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("demo.count").Add(7)
	srv := newTestServer(t, ServerOptions{Registry: reg}, nil)

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
	srv := newTestServer(t, ServerOptions{Registry: obs.NewRegistry()}, nil)
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
// from many goroutines while metrics and spans mutate underneath
// — the data-race probe for the whole read path (run under -race in CI;
// see also TestServerScrapeDuringLiveBuild which drives a real pipeline).
func TestConcurrentScrapeHammer(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(64)
	srv := newTestServer(t, ServerOptions{Registry: reg, Tracer: tr}, nil)

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
// registry and tracer attached while /metrics is scraped
// concurrently, and every scrape must parse as Prometheus text format.
// Run under -race this doubles as the pipeline-vs-scrape race probe.
func TestServerScrapeDuringLiveBuild(t *testing.T) {
	tr := obs.NewTracer(256)
	sc := obs.NewScope().WithTracer(tr)
	srv := newTestServer(t, ServerOptions{Registry: sc.Registry(), Tracer: tr}, nil)

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
