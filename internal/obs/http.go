package obs

import (
	"expvar"
	"net/http"
	"net/http/pprof"
)

// Mount registers the observability endpoints on an existing mux, so a
// process with an API server of its own — cqacdbd — exposes them on the
// same listener instead of a second port:
//
//	/metrics             Prometheus text exposition of the registry
//	/debug/vars          expvar (incl. the registry snapshot under "cdb")
//	/debug/pprof/...     net/http/pprof: profile, heap, goroutine, trace, ...
//
// The patterns carry no method or host, so they coexist with
// method-qualified API routes on the same mux. The registry is also
// published to expvar under "cdb" (once per process: expvar is global, so
// the first registry mounted wins).
func Mount(mux *http.ServeMux, reg *Registry) {
	reg.PublishExpvar("cdb")
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
