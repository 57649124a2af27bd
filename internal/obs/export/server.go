// Package export is the live half of the telemetry plane: a Prometheus
// text-format exporter over the obs Registry and an HTTP telemetry server
// exposing /metrics, /healthz, /readyz, /trace and /debug/pprof —
// everything needed to watch and profile a long enumeration or soundness
// sweep while it runs.
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
// hard-closing connections.
const shutdownGrace = 2 * time.Second

// ServerOptions selects the telemetry the server exposes; nil fields
// degrade their routes gracefully (empty metrics page, empty trace).
type ServerOptions struct {
	Registry *obs.Registry
	Tracer   *obs.Tracer
}

// Server is a running telemetry server. Create one with Serve, mark it
// ready when setup completes, and Close it for a graceful shutdown.
type Server struct {
	srv     *http.Server
	addr    string
	ready   chan struct{} // closed by MarkReady
	once    sync.Once
	readyMu sync.Once

	wait     func() // returns once the Serve goroutine has exited
	serveErr error  // http.Server.Serve's result, read after wait
}

// NewHandler returns the telemetry routes on a fresh, dedicated mux — the
// same handler Serve runs, exposed separately so tests can drive it with
// httptest. A nil ready channel makes /readyz always ready.
func NewHandler(opts ServerOptions, ready <-chan struct{}) http.Handler {
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

// Serve starts the telemetry server on addr (":0" picks a free port; the
// bound address is Server.Addr). The server starts unready — call
// MarkReady once run setup is done so /readyz flips — and runs until
// Close.
func Serve(addr string, opts ServerOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{addr: ln.Addr().String(), ready: make(chan struct{})}
	s.srv = &http.Server{Handler: NewHandler(opts, s.ready)}
	s.wait = cancel.Go(1, func(int) { s.serveErr = s.srv.Serve(ln) })
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.addr }

// MarkReady flips /readyz from 503 to 200. Safe to call more than once.
func (s *Server) MarkReady() {
	s.readyMu.Do(func() { close(s.ready) })
}

// Close shuts the server down gracefully: new connections stop and
// in-flight scrapes get shutdownGrace to finish before the remaining
// connections are hard-closed. It returns once the Serve
// goroutine has exited, reporting the shutdown's error and any Serve
// failure other than the http.ErrServerClosed every shutdown causes.
func (s *Server) Close() error {
	var err error
	s.once.Do(func() {
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
