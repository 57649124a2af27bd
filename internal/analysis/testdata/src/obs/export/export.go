// Package export is a minimal replica of hidinglcp/internal/obs/export for
// analyzer fixtures: the obspurity analyzer matches the "obs/export" path
// suffix, so fixtures stay self-contained.
package export

// Server mirrors the real telemetry server.
type Server struct{}

// Serve mirrors the real constructor.
func Serve(addr string) (*Server, error) { return &Server{}, nil }

// Addr mirrors the real bound-address accessor.
func (s *Server) Addr() string { return "" }

// MarkReady mirrors the real readiness switch.
func (s *Server) MarkReady() {}

// WritePrometheus mirrors the real exporter entry point.
func WritePrometheus() error { return nil }
