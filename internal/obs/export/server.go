// Package export is the live half of the telemetry plane: a Prometheus
// text-format exporter over the obs Registry, a structured JSONL event log
// (EventLog, the production obs.EventSink), and an HTTP telemetry server
// exposing /metrics, /healthz, /readyz, /trace, a Server-Sent-Events tail
// of the event log at /events, and /debug/pprof — everything needed to
// watch and profile a long enumeration or soundness sweep while it runs.
//
// The longitudinal half lives in internal/obs/history (run-manifest
// history and regression diffing, driven by cmd/obsdiff).
//
// Every exported byte sits inside the hiding contract: metric names,
// counts, durations, and redacted digests only — never certificate bytes.
// The obspurity analyzer additionally keeps this package (like obs itself)
// out of decoder Decide bodies, so telemetry can never feed back into
// verdicts.
package export

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"hidinglcp/internal/cancel"
	"hidinglcp/internal/obs"
)

// shutdownGrace bounds how long Close waits for in-flight scrapes before
// hard-closing connections. SSE tails are unblocked explicitly first.
const shutdownGrace = 2 * time.Second

// ServerOptions selects the telemetry the server exposes; nil fields
// degrade their routes gracefully (empty metrics page, empty trace, an
// /events stream that only ever heartbeats).
type ServerOptions struct {
	Registry *obs.Registry
	Tracer   *obs.Tracer
	Events   *EventLog
}

// Server is a running telemetry server. Create one with Serve, mark it
// ready when setup completes, and Close it for a graceful shutdown.
type Server struct {
	opts    ServerOptions
	srv     *http.Server
	addr    string
	ready   chan struct{} // closed by MarkReady
	closing chan struct{} // closed by Close; unblocks SSE tails
	once    sync.Once
	readyMu sync.Once

	wait     func() // returns once the Serve goroutine has exited
	serveErr error  // http.Server.Serve's result, read after wait
}

// NewHandler returns the telemetry routes on a fresh, dedicated mux — the
// same handler Serve runs, exposed separately so tests can drive it with
// httptest. The ready and closing channels may be nil (then /readyz is
// always ready and /events streams until the client disconnects).
func NewHandler(opts ServerOptions, ready, closing <-chan struct{}) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, opts.Registry.Snapshot()) //nolint:errcheck // best-effort write to the client
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-readyOrNil(ready):
			fmt.Fprintln(w, "ready")
		default:
			http.Error(w, "starting", http.StatusServiceUnavailable)
		}
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		opts.Tracer.WriteJSON(w) //nolint:errcheck // best-effort write to the client
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		serveEvents(w, r, opts.Events, closing)
	})
	obs.RegisterDebug(mux, opts.Registry)
	return mux
}

// alwaysReady backs readyOrNil's nil case.
var alwaysReady = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// readyOrNil treats a nil readiness channel as always-ready.
func readyOrNil(ch <-chan struct{}) <-chan struct{} {
	if ch == nil {
		return alwaysReady
	}
	return ch
}

// serveEvents streams the event log over Server-Sent Events: the retained
// tail first (so a late-attaching observer still sees recent history),
// then the live feed, with periodic comment heartbeats, until the client
// disconnects, the log closes, or the server shuts down. Frames follow the
// SSE grammar: "event: log", one "data:" line of JSON, a blank line.
func serveEvents(w http.ResponseWriter, r *http.Request, log *EventLog, closing <-chan struct{}) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	writeEvent := func(ev obs.LogEvent) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return true
		}
		_, err = fmt.Fprintf(w, "event: log\ndata: %s\n\n", data)
		return err == nil
	}

	// Subscribe before replaying the tail so no event can fall between
	// the two; the overlap (an event in both tail and feed) is bounded by
	// the subscription buffer and harmless for observers.
	var feed <-chan obs.LogEvent
	if log != nil {
		var unsubscribe func()
		feed, unsubscribe = log.Subscribe(256)
		defer unsubscribe()
		for _, ev := range log.Tail(0) {
			if !writeEvent(ev) {
				return
			}
		}
	}
	fmt.Fprintf(w, ": stream open\n\n")
	flusher.Flush()

	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-closing: // a nil closing never fires
			return
		case <-heartbeat.C:
			if _, err := fmt.Fprintf(w, ": ping\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case ev, ok := <-feed:
			if !ok {
				return
			}
			if !writeEvent(ev) {
				return
			}
			flusher.Flush()
		}
	}
}

// Serve starts the telemetry server on addr (":0" picks a free port; the
// bound address is Server.Addr). The server starts unready — call
// MarkReady once run setup is done so /readyz flips — and runs until
// Close.
func Serve(addr string, opts ServerOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		opts:    opts,
		addr:    ln.Addr().String(),
		ready:   make(chan struct{}),
		closing: make(chan struct{}),
	}
	s.srv = &http.Server{Handler: NewHandler(opts, s.ready, s.closing)}
	s.wait = cancel.Go(1, func(int) { s.serveErr = s.srv.Serve(ln) })
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.addr }

// MarkReady flips /readyz from 503 to 200. Safe to call more than once.
func (s *Server) MarkReady() {
	s.readyMu.Do(func() { close(s.ready) })
}

// Close shuts the server down gracefully: new connections stop, SSE tails
// are released, and in-flight scrapes get shutdownGrace to finish before
// the remaining connections are hard-closed. It returns once the Serve
// goroutine has exited, reporting the shutdown's error and any Serve
// failure other than the http.ErrServerClosed every shutdown causes.
func (s *Server) Close() error {
	var err error
	s.once.Do(func() {
		close(s.closing)
		ctx, stop := context.WithTimeout(context.Background(), shutdownGrace)
		defer stop()
		err = s.srv.Shutdown(ctx)
		if err != nil {
			err = s.srv.Close()
		}
		s.wait()
		if !errors.Is(s.serveErr, http.ErrServerClosed) {
			err = errors.Join(err, s.serveErr)
		}
	})
	return err
}
