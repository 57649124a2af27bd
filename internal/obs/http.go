package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
)

// RegisterDebug installs the process-debugging routes on mux:
// net/http/pprof under /debug/pprof/ and a JSON snapshot of reg's metrics
// under /debug/vars (shaped like expvar output, {"hidinglcp.metrics": [...]},
// but computed per request from the given registry — no process-global
// expvar publication, so any number of servers over different registries
// can coexist in one process). The pprof handlers are registered explicitly
// rather than by importing net/http/pprof for its side effect, so nothing
// ever touches http.DefaultServeMux. export.Serve mounts these routes next
// to the telemetry plane; profile a live run with
//
//	go tool pprof http://<addr>/debug/pprof/profile
func RegisterDebug(mux *http.ServeMux, reg *Registry) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(map[string]any{"hidinglcp.metrics": reg.Snapshot()}) //nolint:errcheck // best-effort write to the client
	})
}
