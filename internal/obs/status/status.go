// Package status serves the sweep observability surfaces over HTTP: the
// metrics registry in Prometheus text format at /metrics, a liveness probe
// at /healthz, the live-progress JSON at /progress, and net/http/pprof
// under /debug/pprof/.  dsre-sweep and dsre-bench serve it with -status.
// It lives outside internal/obs proper
// because a server needs goroutines and the wall clock, which dsre-lint's
// determinism analyzer bans from the audited obs package.
package status

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Options configures the endpoints.
type Options struct {
	// Registry backs /metrics; nil serves 404 there.
	Registry *obs.Registry
	// Progress returns the live-progress document for /progress (typically
	// SweepObs.Progress bound to the wall clock); nil serves 404 there.
	Progress func() obs.ProgressView
	// Start is the process start time reported by /healthz (zero means the
	// moment the handler was built).
	Start time.Time
}

// HealthSchema identifies the /healthz liveness document.
const HealthSchema = "dsre-serve-health/v1"

// HealthView is the /healthz JSON document: liveness plus the version
// identity operators use to spot skewed processes.
type HealthView struct {
	Schema      string `json:"schema"`
	Status      string `json:"status"` // always "ok": a live handler is healthy
	SimVersion  string `json:"sim_version"`
	GoVersion   string `json:"go_version"`
	StartTimeMS int64  `json:"start_time_ms"` // unix milliseconds
	UptimeMS    int64  `json:"uptime_ms"`
}

// health renders the document for a process started at start, as seen at
// now.
func health(start, now time.Time) HealthView {
	return HealthView{
		Schema: HealthSchema, Status: "ok",
		SimVersion: sim.Version, GoVersion: runtime.Version(),
		StartTimeMS: start.UnixMilli(),
		UptimeMS:    now.Sub(start).Milliseconds(),
	}
}

// writeJSON writes v as indented JSON with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Server is a live status listener.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve binds addr immediately — a bad address fails the caller, not a
// background goroutine — and serves until Close.
func Serve(addr string, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("status: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: Handler(opts), ReadHeaderTimeout: 10 * time.Second}}
	go func() {
		// http.Serve returns ErrServerClosed-ish errors on Close; the
		// listener owns the lifecycle, so there is nothing to report.
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the bound address (resolves ":0" for tests).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and in-flight handlers.
func (s *Server) Close() error { return s.srv.Close() }

// Handler builds the status mux (exported so tests can drive it without a
// socket).
func Handler(opts Options) http.Handler {
	mux := http.NewServeMux()
	start := opts.Start
	if start.IsZero() {
		start = time.Now()
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, health(start, time.Now()))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if opts.Registry == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = opts.Registry.WritePrometheus(w)
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		if opts.Progress == nil {
			http.NotFound(w, r)
			return
		}
		writeJSON(w, http.StatusOK, opts.Progress())
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "dsre status endpoints:")
		fmt.Fprintln(w, "  /metrics      Prometheus text exposition")
		fmt.Fprintln(w, "  /healthz      liveness probe")
		fmt.Fprintln(w, "  /progress     live sweep progress (dsre-progress/v1)")
		fmt.Fprintln(w, "  /debug/pprof  Go runtime profiles")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
