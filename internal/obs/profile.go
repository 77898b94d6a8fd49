package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// PrometheusContentType is the Content-Type of the text exposition format.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// MetricsHandler serves reg in Prometheus text format.
func MetricsHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", PrometheusContentType)
		reg.WritePrometheus(w)
	})
}

// DebugMux builds the debug surface: /metrics and the full
// net/http/pprof suite under /debug/pprof/. It is meant for a separate
// opt-in listener, never the serving port: pprof handlers can be made to
// do unbounded work, so they must not share the admission-controlled
// public surface.
func DebugMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	if reg != nil {
		mux.Handle("/metrics", MetricsHandler(reg))
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ProfileServer is the opt-in debug listener. Construct with
// StartDebugServer, stop with Close.
type ProfileServer struct {
	ln  net.Listener
	srv *http.Server
}

// StartDebugServer binds addr and serves mux in the background. Callers
// compose extra handlers (failpoint control, custom dumps) onto a
// DebugMux before starting it.
func StartDebugServer(addr string, mux http.Handler) (*ProfileServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug listener: %w", err)
	}
	p := &ProfileServer{
		ln: ln,
		srv: &http.Server{
			Handler:           mux,
			ReadHeaderTimeout: 5 * time.Second,
		},
	}
	go p.srv.Serve(ln)
	return p, nil
}

// Addr reports the bound address (useful with ":0").
func (p *ProfileServer) Addr() net.Addr { return p.ln.Addr() }

// Close stops the listener and any in-flight debug requests.
func (p *ProfileServer) Close() error { return p.srv.Close() }
