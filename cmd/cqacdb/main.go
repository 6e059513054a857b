// Command cqacdb is the CQA/CDB shell: it loads a constraint database
// (text format, see internal/db) and executes query programs written in
// the paper's ASCII query language, either from files, from -e, or
// interactively.
//
// Usage:
//
//	cqacdb -demo hurricane                  # interactive shell on the case study
//	cqacdb -db parcels.cqa script.cqa       # run a script
//	cqacdb -db parcels.cqa -e 'R = select x >= 5 from Land'
//	cqacdb -par 8 -stats -e '...'           # 8 workers + per-operator stats
//	cqacdb -explain -e '...'                # EXPLAIN ANALYZE-style plan tree
//	cqacdb -metrics-addr :8080 -demo hurricane   # /metrics + pprof while the shell runs
//
// Snapshot store (package snapshot; shared with cqacdbd's -snapshot-dir):
//
//	cqacdb -snapshot-dir ./snaps -demo hurricane -snap-commit    # commit the db, print its id
//	cqacdb -snapshot-dir ./snaps -snap-list                      # list snapshots
//	cqacdb -snapshot-dir ./snaps -snap-fork snap1-xxxxxxxx       # O(1) copy-on-write branch
//	cqacdb -snapshot-dir ./snaps -snap-restore snap2-xxxxxxxx    # shell over a snapshot
//
// Queries execute on the parallel CQA layer (package exec): -par sets the
// worker-pool size (0 = GOMAXPROCS, 1 = sequential; operators with fewer
// than exec.DefaultSeqThreshold work items stay sequential), and -stats
// prints one row per operator invocation (the operator counters of
// docs/OBSERVABILITY.md, wall time) after each program, followed by the
// sat-cache counters when the cache is on. -sat-cache sets the size of the memoized satisfiability engine
// (entries; 0 disables it), which persists across the statements and
// programs of a session, so repeated shapes are decided once. The binary
// operators pair tuples through a filter-and-refine candidate filter
// (relational hash partitioning + constraint envelopes + switched
// enumeration; docs/ARCHITECTURE.md "The filter stage") and decide each
// surviving pair by the cheapest decider that is exact on it (envelopes,
// clipping, sat-cache / Fourier-Motzkin); the engine chooses both.
// Parallel output is byte-identical to sequential output, with or without
// the cache.
//
// Observability (package obs):
//
//   - -explain prints each program's execution as an EXPLAIN ANALYZE-style
//     plan tree: one line per plan node, annotated with the per-span
//     counters (tuples in/out, sat checks, pruned, cache hits/misses, raw
//     Fourier-Motzkin eliminations) and wall time, with pool fan-outs shown
//     as child spans carrying queue-wait and per-worker busy time;
//   - -trace-json FILE writes the same span tree as JSON (overwritten per
//     program; the last program's trace remains);
//   - -metrics-addr HOST:PORT starts an HTTP listener serving /metrics
//     (Prometheus text format), /debug/vars (expvar) and /debug/pprof/...
//     for the life of the process;
//   - -slowlog D (e.g. 10ms) logs every span at least that slow through
//     log/slog on stderr, so pathological conjunctions surface themselves;
//   - -query-log FILE appends every executed program as one NDJSON
//     flight record (query id, wall time, rows, outcome, per-operator
//     records with the planner's strategy and est/act pair counts).
//
// When any of -explain, -trace-json, -slowlog or -query-log is active,
// each program gets a flight-recorder query id ("q<seq>-<8 hex>"): root
// spans carry it as a query_id label, slow-span records and NDJSON
// flight records reference it, so the three outputs join.
//
// Tracing changes what is *reported*, never what is computed: operator
// outputs are byte-identical with observability on or off.
//
// Interactive commands (besides query statements "Name = ..."):
//
//	\list            list relations
//	\show NAME       print a relation
//	\schema NAME     print a relation's schema
//	\svg R FILE      render a spatial relation to an SVG file
//	\save PATH       save the database (including session results)
//	\quit            exit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"time"

	"cdb/internal/calculus"
	"cdb/internal/constraint"
	"cdb/internal/db"
	"cdb/internal/exec"
	"cdb/internal/hurricane"
	"cdb/internal/obs"
	"cdb/internal/query"
	"cdb/internal/relation"
	"cdb/internal/render"
	"cdb/internal/schema"
	"cdb/internal/snapshot"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cqacdb:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cqacdb", flag.ContinueOnError)
	dbPath := fs.String("db", "", "database file to load (text format)")
	demo := fs.String("demo", "", "load a built-in demo database (hurricane)")
	expr := fs.String("e", "", "execute one query program and print the result")
	rules := fs.String("rules", "", "execute one declarative rule program (calculus front end)")
	maxRows := fs.Int("rows", 50, "maximum tuples to print per relation")
	par := fs.Int("par", 0, "CQA worker-pool size (0 = GOMAXPROCS, 1 = sequential)")
	stats := fs.Bool("stats", false, "print per-operator execution stats after each program")
	satCache := fs.Int("sat-cache", constraint.DefaultSatCacheSize,
		"memoized satisfiability engine size in entries (0 = disabled)")
	explain := fs.Bool("explain", false, "print each program's EXPLAIN ANALYZE-style plan tree")
	traceJSON := fs.String("trace-json", "", "write each program's span tree as JSON to this file")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, expvar and /debug/pprof on this address")
	slowlog := fs.Duration("slowlog", 0, "log spans at least this slow via slog (0 = off)")
	queryLog := fs.String("query-log", "", "append every executed program as one NDJSON flight record to this file")
	snapshotDir := fs.String("snapshot-dir", "", "copy-on-write snapshot store directory (enables -snap-* commands)")
	snapList := fs.Bool("snap-list", false, "list the store's snapshots and exit")
	snapCommit := fs.Bool("snap-commit", false, "commit the loaded database as a snapshot and exit")
	snapFork := fs.String("snap-fork", "", "fork this snapshot id (O(1) copy-on-write branch) and exit")
	snapRestore := fs.String("snap-restore", "", "load the database from this snapshot id instead of -db/-demo")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ec := exec.New(*par)
	if *satCache > 0 {
		ec.SatCache = constraint.NewSatCache(*satCache)
	}
	s := &session{ec: ec, stats: *stats, explain: *explain, traceJSON: *traceJSON}
	if *explain || *traceJSON != "" || *slowlog > 0 {
		s.tracer = obs.NewTracer()
		s.tracer.SlowThreshold = *slowlog
		if *slowlog > 0 {
			s.tracer.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
		}
		ec.Tracer = s.tracer
	}
	if *queryLog != "" {
		f, err := os.OpenFile(*queryLog, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("-query-log: %w", err)
		}
		defer f.Close()
		// Capacity 1: the CLI never serves the history ring; the recorder
		// is here for the NDJSON stream.
		s.flight = obs.NewFlight(1)
		s.flight.Log = f
		if s.tracer != nil && s.tracer.Logger != nil {
			s.flight.Logger = s.tracer.Logger
		} else {
			s.flight.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
		}
	}
	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		ec.InstallMetrics(reg)
		if s.tracer != nil {
			s.tracer.Metrics = reg
		}
		if s.flight != nil {
			s.flight.Metrics = reg
		}
		srv, err := obs.ServeMetrics(*metricsAddr, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("observability: http://%s/metrics /debug/vars /debug/pprof/\n", srv.Addr())
	}

	// The snapshot store: -snap-list and -snap-fork are standalone
	// commands; -snap-restore swaps the database source; -snap-commit
	// runs after load, below.
	var snaps *snapshot.Store
	if *snapshotDir != "" {
		var err error
		snaps, err = snapshot.Open(*snapshotDir, snapshot.Options{EC: ec})
		if err != nil {
			return err
		}
		defer snaps.Close()
	} else if *snapList || *snapCommit || *snapFork != "" || *snapRestore != "" {
		return fmt.Errorf("-snap-list/-snap-commit/-snap-fork/-snap-restore need -snapshot-dir")
	}
	if *snapList {
		st := snaps.Stats()
		fmt.Printf("snapshot store %s: %d snapshots, %d live pages, %d free, page size %d\n",
			*snapshotDir, st.Snapshots, st.PagesLive, st.PagesFree, st.PageSize)
		for _, meta := range snaps.List() {
			parent := meta.Parent
			if parent == "" {
				parent = "-"
			}
			fmt.Printf("  %-22s parent=%-22s db=%-12s tuples=%-5d pages=%-4d new=%-4d shared=%d\n",
				meta.ID, parent, meta.DB, meta.Tuples, meta.Pages, meta.NewPages, meta.SharedPages)
		}
		return nil
	}
	if *snapFork != "" {
		meta, err := snaps.Fork(*snapFork)
		if err != nil {
			return err
		}
		fmt.Printf("forked %s -> %s (%d pages, all shared)\n", meta.Parent, meta.ID, meta.Pages)
		return nil
	}

	var d *db.Database
	dbLabel := ""
	switch {
	case *snapRestore != "":
		var err error
		d, err = snaps.MaterializeCtx(*snapRestore, ec)
		if err != nil {
			return err
		}
		meta, _ := snaps.Get(*snapRestore)
		dbLabel = meta.DB
		fmt.Printf("restored snapshot %s (db=%s): relations %s\n",
			*snapRestore, meta.DB, strings.Join(d.Names(), ", "))
	case *demo == "hurricane":
		d = hurricane.Build()
		dbLabel = "hurricane"
		fmt.Println("loaded demo database: hurricane (§3.3 case study)")
	case *demo != "":
		return fmt.Errorf("unknown demo %q (try: hurricane)", *demo)
	case *dbPath != "":
		var err error
		d, err = db.LoadFileCtx(*dbPath, ec)
		if err != nil {
			return err
		}
		dbLabel = *dbPath
		fmt.Printf("loaded %s: relations %s\n", *dbPath, strings.Join(d.Names(), ", "))
	default:
		d = db.New()
	}

	if *snapCommit {
		parent := *snapRestore // lineage when committing a restored branch
		meta, err := snaps.CommitCtx(d, parent, dbLabel, ec)
		if err != nil {
			return err
		}
		fmt.Printf("committed %s: %d tuples, %d pages (%d new, %d shared)\n",
			meta.ID, meta.Tuples, meta.Pages, meta.NewPages, meta.SharedPages)
		return nil
	}

	if *expr != "" {
		s.begin()
		out, err := d.RunCtx(*expr, ec)
		if err != nil {
			s.finish(*expr, 0, err)
			return err
		}
		s.finish(*expr, out.Len(), nil)
		printRelation(out, *maxRows)
		return s.report(os.Stdout)
	}
	if *rules != "" {
		prog, err := calculus.Parse(*rules)
		if err != nil {
			return err
		}
		s.begin()
		out, err := prog.RunCtx(d.Env(), ec)
		if err != nil {
			s.finish(*rules, 0, err)
			return err
		}
		s.finish(*rules, out.Len(), nil)
		printRelation(out, *maxRows)
		return s.report(os.Stdout)
	}
	if fs.NArg() > 0 {
		for _, path := range fs.Args() {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			s.begin()
			out, err := d.RunCtx(string(src), ec)
			if err != nil {
				s.finish(string(src), 0, err)
				return fmt.Errorf("%s: %w", path, err)
			}
			s.finish(string(src), out.Len(), nil)
			fmt.Printf("== %s ==\n", path)
			printRelation(out, *maxRows)
			if err := s.report(os.Stdout); err != nil {
				return err
			}
		}
		return nil
	}
	return repl(d, *maxRows, s, os.Stdin, os.Stdout)
}

// session bundles one CLI invocation's execution context with its
// observability outputs (-stats table, -explain tree, -trace-json file,
// -query-log flight records).
type session struct {
	ec        *exec.Context
	tracer    *obs.Tracer
	flight    *obs.Flight
	stats     bool
	explain   bool
	traceJSON string

	// Per-program flight-recorder state, set by begin and consumed by
	// finish. qid is empty when no observability sink wants an identity.
	qid   string
	start time.Time
}

// begin opens a query identity for the next program. The id is
// generated only when something consumes it — the tracer stamps it on
// root spans and slow-span records, the flight recorder keys NDJSON
// records by it — so plain runs stay id-free and byte-identical.
func (s *session) begin() {
	if s.tracer == nil && s.flight == nil {
		return
	}
	s.qid = obs.NewQueryID()
	s.start = time.Now()
	if s.tracer != nil {
		s.tracer.QueryID = s.qid
	}
}

// finish records the finished program as a flight record: NDJSON to the
// -query-log file. It must run before report(), which resets the
// per-operator records the flight record carries.
func (s *session) finish(src string, rows int, err error) {
	if s.flight == nil || s.qid == "" {
		return
	}
	elapsed := time.Since(s.start)
	rec := obs.FlightRecord{
		ID:          s.qid,
		Statement:   db.FirstLine(src),
		StartUnixMS: s.start.UnixMilli(),
		WallMS:      float64(elapsed.Microseconds()) / 1000,
		Rows:        rows,
		Outcome:     obs.OutcomeOf(err),
		Ops:         s.ec.Stats(),
	}
	rec.CacheHitRate = obs.CacheHitRate(rec.Ops, s.ec.SatCache != nil)
	if err != nil {
		rec.Error = err.Error()
	}
	s.flight.Finish(rec)
}

// report renders and clears the per-program observability state: the
// -stats table (plus the session-cumulative sat-cache counters), the
// -explain span tree, and the -trace-json file (overwritten each
// program). Stats and spans are reset either way so a session does not
// accumulate silently ignored records.
func (s *session) report(w io.Writer) error {
	if s.stats {
		fmt.Fprint(w, exec.FormatStats(s.ec.Stats()))
		if s.ec.SatCache != nil {
			fmt.Fprintf(w, "sat-cache: %s\n", s.ec.SatCache.Stats())
		}
	}
	s.ec.Reset()
	if s.tracer == nil {
		return nil
	}
	roots := s.tracer.Roots()
	defer s.tracer.Reset()
	if s.explain {
		fmt.Fprint(w, obs.FormatTree(roots, obs.TreeOptions{Wall: true}))
	}
	if s.traceJSON != "" {
		b, err := obs.TraceJSON(roots)
		if err != nil {
			return err
		}
		if err := os.WriteFile(s.traceJSON, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func repl(d *db.Database, maxRows int, s *session, in io.Reader, out io.Writer) error {
	fmt.Fprintln(out, "CQA/CDB shell. Statements: Name = select ... | \\list \\show R \\schema R \\save PATH \\quit")
	sc := bufio.NewScanner(in)
	for {
		fmt.Fprint(out, "cqa> ")
		if !sc.Scan() {
			fmt.Fprintln(out)
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == `\quit` || line == `\q`:
			return nil
		case line == `\list` || line == `\l`:
			for _, name := range d.Names() {
				r, _ := d.Get(name)
				fmt.Fprintf(out, "  %-16s %3d tuples  %s\n", name, r.Len(), r.Schema())
			}
		case strings.HasPrefix(line, `\show `):
			name := strings.TrimSpace(strings.TrimPrefix(line, `\show `))
			if r, ok := d.Get(name); ok {
				fprintRelation(out, r, maxRows)
			} else {
				fmt.Fprintf(out, "no relation %q\n", name)
			}
		case strings.HasPrefix(line, `\schema `):
			name := strings.TrimSpace(strings.TrimPrefix(line, `\schema `))
			if r, ok := d.Get(name); ok {
				fmt.Fprintln(out, r.Schema())
			} else {
				fmt.Fprintf(out, "no relation %q\n", name)
			}
		case strings.HasPrefix(line, `\svg `):
			args := strings.Fields(strings.TrimPrefix(line, `\svg `))
			if len(args) != 2 {
				fmt.Fprintln(out, `usage: \svg RELATION FILE.svg`)
				continue
			}
			r, ok := d.Get(args[0])
			if !ok {
				fmt.Fprintf(out, "no relation %q\n", args[0])
				continue
			}
			fid, x, y, derr := deduceSpatialShell(r)
			if derr != nil {
				fmt.Fprintln(out, derr)
				continue
			}
			svg, rerr := render.Relation(r, fid, x, y, render.Options{})
			if rerr != nil {
				fmt.Fprintln(out, rerr)
				continue
			}
			if werr := os.WriteFile(args[1], []byte(svg), 0o644); werr != nil {
				fmt.Fprintln(out, werr)
				continue
			}
			fmt.Fprintln(out, "wrote", args[1])
		case strings.HasPrefix(line, `\save `):
			path := strings.TrimSpace(strings.TrimPrefix(line, `\save `))
			if err := d.SaveFile(path); err != nil {
				fmt.Fprintln(out, "save failed:", err)
			} else {
				fmt.Fprintln(out, "saved", path)
			}
		case strings.HasPrefix(line, `\`):
			fmt.Fprintf(out, "unknown command %q\n", line)
		default:
			prog, err := query.Parse(line)
			if err != nil {
				fmt.Fprintln(out, err)
				continue
			}
			s.begin()
			// Every statement's target persists, so later lines can build
			// on earlier ones; the printed result is normalised, as -e's is.
			root := s.ec.BeginSpan("query", line)
			_, res, err := db.RunProgram(prog, d.Env(), s.ec, func(target string, r *relation.Relation) {
				_ = d.Put(target, r) // Put fails only on an empty name; a parsed target has one
			})
			s.ec.EndSpan(root)
			if err != nil {
				s.finish(line, 0, err)
				fmt.Fprintln(out, err)
				continue
			}
			s.finish(line, res.Len(), nil)
			fprintRelation(out, res, maxRows)
			if err := s.report(out); err != nil {
				fmt.Fprintln(out, err)
			}
		}
	}
}

func printRelation(r *relation.Relation, maxRows int) {
	fprintRelation(os.Stdout, r, maxRows)
}

func fprintRelation(w io.Writer, r *relation.Relation, maxRows int) {
	fmt.Fprintln(w, r.Schema())
	rows := r.Rows()
	for i, row := range rows {
		if i >= maxRows {
			fmt.Fprintf(w, "  ... (%d more tuples)\n", len(rows)-maxRows)
			break
		}
		fmt.Fprintf(w, "  %s\n", row)
	}
	fmt.Fprintf(w, "(%d tuples)\n", len(rows))
}

// deduceSpatialShell finds the (fid, x, y) triple of a spatial relation
// for the \svg command.
func deduceSpatialShell(r *relation.Relation) (fid, x, y string, err error) {
	var fids, cons []string
	for _, a := range r.Schema().Attrs() {
		switch {
		case a.Kind == schema.Relational && a.Type == schema.String:
			fids = append(fids, a.Name)
		case a.Kind == schema.Constraint:
			cons = append(cons, a.Name)
		}
	}
	if len(fids) != 1 || len(cons) != 2 {
		return "", "", "", fmt.Errorf("not a spatial relation (need 1 string id + 2 constraint attrs): %s", r.Schema())
	}
	return fids[0], cons[0], cons[1], nil
}
