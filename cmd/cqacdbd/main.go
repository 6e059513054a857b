// Command cqacdbd is the CQA/CDB server: a resident process serving
// many concurrent sessions against shared in-memory constraint
// databases over a JSON HTTP API (package server).
//
// Usage:
//
//	cqacdbd -demo hurricane                       # serve the §3.3 case study on :8344
//	cqacdbd -db parcels=parcels.cqa -addr :9000   # serve a database file
//	cqacdbd -db a=a.cqa -db b=b.cqa               # several databases, one process
//	cqacdbd -demo hurricane -addr 127.0.0.1:0     # pick a free port (printed on stdout)
//
// The API (full reference: docs/SERVER.md):
//
//	POST   /v1/sessions        open a session (its own worker pool and bindings)
//	POST   /v1/query           run a query or rules program on a session
//	GET    /v1/sessions        list sessions        GET /v1/sessions/{id}  inspect one
//	DELETE /v1/sessions/{id}   close a session
//	GET    /v1/dbs             the shared database registry
//	GET    /v1/queries         queries executing right now; DELETE /v1/queries/{id} cancels one
//	GET    /v1/queries/recent  finished-query history (?min_ms=&limit=)
//	GET    /healthz            liveness (reports "draining" during shutdown)
//	GET    /metrics            Prometheus text format: every process-level counter
//	GET    /debug/vars         the runtime's expvars (memstats); /debug/pprof/... profiles
//
// With -snapshot-dir the daemon gains durable, branchable state (the
// copy-on-write snapshot store, package snapshot):
//
//	POST   /v1/dbs/{name}/snapshots    commit a registry database
//	POST   /v1/sessions/{id}/snapshot  commit a session's state (base + results)
//	GET    /v1/snapshots               list;  GET /v1/snapshots/{id} inspect
//	POST   /v1/snapshots/{id}/fork     O(1) branch;  DELETE /v1/snapshots/{id} release
//
// and sessions may bind to a snapshot with {"snapshot": "<id>"}.
// Snapshots survive restarts: the store WAL-replays on open.
//
// Load and lifetime knobs: -max-inflight caps concurrently executing
// queries (beyond it the server sheds with 429 + Retry-After);
// -query-timeout bounds each query (requests may shorten it with
// timeout_ms); -session-idle-timeout reaps abandoned sessions;
// -max-sessions caps open sessions. -par sets the worker-pool size new
// sessions inherit (each session may override it); -sat-cache sizes the
// one sat-cache every session shares.
//
// Flight recorder knobs: -query-history sizes the finished-query ring
// behind /v1/queries/recent, -query-log appends every finished query as
// NDJSON to a file.
//
// On SIGINT/SIGTERM the server drains: new queries get 503, in-flight
// queries run to completion (bounded by -shutdown-grace), sessions are
// closed, and the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"cdb/internal/constraint"
	"cdb/internal/db"
	"cdb/internal/hurricane"
	"cdb/internal/obs"
	"cdb/internal/server"
	"cdb/internal/snapshot"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cqacdbd:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cqacdbd", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", ":8344", "listen address (host:port; port 0 picks a free port)")
	demo := fs.String("demo", "", "serve a built-in demo database (hurricane)")
	maxInflight := fs.Int("max-inflight", server.DefaultMaxInflight,
		"max concurrently executing queries before shedding with 429")
	maxSessions := fs.Int("max-sessions", server.DefaultMaxSessions,
		"max concurrently open sessions")
	queryTimeout := fs.Duration("query-timeout", server.DefaultQueryTimeout,
		"per-query execution deadline (0 = none; requests may shorten it)")
	idleTimeout := fs.Duration("session-idle-timeout", server.DefaultSessionIdleTimeout,
		"close sessions idle this long (0 = never)")
	par := fs.Int("par", 0, "default session worker-pool size (0 = GOMAXPROCS, 1 = sequential)")
	satCache := fs.Int("sat-cache", constraint.DefaultSatCacheSize,
		"size in entries of the one sat-cache every session shares (0 = disabled)")
	grace := fs.Duration("shutdown-grace", 30*time.Second,
		"how long shutdown waits for in-flight queries to drain")
	quiet := fs.Bool("quiet", false, "suppress request logging on stderr")
	queryHistory := fs.Int("query-history", obs.DefaultFlightCapacity,
		"finished queries retained for GET /v1/queries/recent")
	queryLog := fs.String("query-log", "",
		"append every finished query as one NDJSON record to this file")
	snapshotDir := fs.String("snapshot-dir", "",
		"enable the copy-on-write snapshot store rooted at this directory (/v1/snapshots API)")
	snapshotFault := fs.String("snapshot-fault", "",
		"crash-test hook: inject a fault at the Nth snapshot storage op (wal:N or page:N; the op hangs so the process can be killed mid-commit)")

	dbs := map[string]*db.Database{}
	fs.Func("db", "serve a database file as name=path (repeatable)", func(v string) error {
		name, path, ok := strings.Cut(v, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("-db wants name=path, got %q", v)
		}
		if _, dup := dbs[name]; dup {
			return fmt.Errorf("-db %q given twice", name)
		}
		d, err := db.LoadFile(path)
		if err != nil {
			return err
		}
		dbs[name] = d
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *demo == "hurricane":
		dbs["hurricane"] = hurricane.Build()
	case *demo != "":
		return fmt.Errorf("unknown demo %q (try: hurricane)", *demo)
	}
	if len(dbs) == 0 {
		return fmt.Errorf("no databases to serve: give -db name=path or -demo hurricane")
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if *quiet {
		logger = nil
	}
	var queryLogW io.Writer
	if *queryLog != "" {
		f, err := os.OpenFile(*queryLog, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("-query-log: %w", err)
		}
		defer f.Close()
		queryLogW = f
	}
	var snaps *snapshot.Store
	if *snapshotDir != "" {
		fault, err := parseFault(*snapshotFault)
		if err != nil {
			return err
		}
		snaps, err = snapshot.Open(*snapshotDir, snapshot.Options{Fault: fault})
		if err != nil {
			return err
		}
		defer snaps.Close()
		st := snaps.Stats()
		fmt.Fprintf(out, "snapshot store %s: %d snapshots, %d live pages, %d free\n",
			*snapshotDir, st.Snapshots, st.PagesLive, st.PagesFree)
		for _, meta := range snaps.List() {
			fmt.Fprintf(out, "  %s db=%s tuples=%d pages=%d\n", meta.ID, meta.DB, meta.Tuples, meta.Pages)
		}
	} else if *snapshotFault != "" {
		return fmt.Errorf("-snapshot-fault needs -snapshot-dir")
	}

	srv := server.New(dbs, server.Config{
		MaxInflight:        *maxInflight,
		MaxSessions:        *maxSessions,
		QueryTimeout:       *queryTimeout,
		SessionIdleTimeout: *idleTimeout,
		DefaultPar:         *par,
		DefaultSatCache:    cacheSize(*satCache),
		QueryHistory:       *queryHistory,
		QueryLog:           queryLogW,
		Snapshots:          snaps,
		Logger:             logger,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}

	for _, name := range sortedNames(dbs) {
		fmt.Fprintf(out, "serving %s: %d relations, %d tuples\n",
			name, len(dbs[name].Names()), dbs[name].TupleCount())
	}
	// The smoke scripts and -addr :0 users parse this line for the port.
	fmt.Fprintf(out, "cqacdbd listening on http://%s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err // listener failed before any signal
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(out, "cqacdbd: draining...")
	graceCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	// Drain order: first the query layer (new queries 503, in-flight run
	// to completion), then the HTTP layer (idle connections closed).
	if err := srv.Shutdown(graceCtx); err != nil {
		fmt.Fprintf(out, "cqacdbd: drain incomplete: %v\n", err)
	}
	if err := httpSrv.Shutdown(graceCtx); err != nil {
		return err
	}
	fmt.Fprintln(out, "cqacdbd: bye")
	return nil
}

// parseFault decodes the -snapshot-fault hook: "wal:N" arms the Nth WAL
// record append, "page:N" the Nth page write. The injected op writes a
// torn prefix and hangs, holding the daemon mid-commit so the crash
// smoke can kill -9 it and assert the reopened store recovered.
func parseFault(spec string) (*snapshot.Fault, error) {
	if spec == "" {
		return nil, nil
	}
	kind, nstr, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("-snapshot-fault wants wal:N or page:N, got %q", spec)
	}
	var n int
	if _, err := fmt.Sscanf(nstr, "%d", &n); err != nil || n <= 0 {
		return nil, fmt.Errorf("-snapshot-fault wants a positive op number, got %q", spec)
	}
	f := &snapshot.Fault{Torn: true, Hang: true}
	switch kind {
	case "wal":
		f.WALAppendN = n
	case "page":
		f.PageWriteN = n
	default:
		return nil, fmt.Errorf("-snapshot-fault wants wal:N or page:N, got %q", spec)
	}
	return f, nil
}

// cacheSize maps the CLI convention (0 = disabled) onto the Config one
// (0 = default, negative = disabled).
func cacheSize(n int) int {
	if n <= 0 {
		return -1
	}
	return n
}

func sortedNames(dbs map[string]*db.Database) []string {
	names := make([]string, 0, len(dbs))
	for name := range dbs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
