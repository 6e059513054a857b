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
// (relational hash partitioning + constraint envelopes + one nested loop
// per bucket; docs/ARCHITECTURE.md "The filter stage") and decide each
// surviving pair by the cheapest decider that is exact on it (envelopes,
// clipping, sat-cache / Fourier-Motzkin); the engine chooses both.
// Parallel output is byte-identical to sequential output, with or without
// the cache.
//
// Observability (package obs): a run prints the three views of its own
// record that cqacdbd also returns per request (-stats is the reply's
// "stats", -explain its "explain", -trace-json its "trace").
//
//   - -explain prints each program's execution as an EXPLAIN ANALYZE-style
//     plan tree: one line per plan node, annotated with the per-span
//     counters (tuples in/out, sat checks, pruned, cache hits/misses, raw
//     Fourier-Motzkin eliminations) and wall time, with pool fan-outs shown
//     as child spans carrying queue-wait and per-worker busy time;
//   - -trace-json FILE writes the same span tree as JSON (overwritten per
//     program; the last program's trace remains).
//
// Process-level observability (/metrics, pprof, the query history and
// its NDJSON log) is served by cqacdbd alone (docs/OBSERVABILITY.md).
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
	"os"
	"strings"

	"cdb/internal/calculus"
	"cdb/internal/constraint"
	"cdb/internal/db"
	"cdb/internal/exec"
	"cdb/internal/hurricane"
	"cdb/internal/obs"
	"cdb/internal/query"
	"cdb/internal/relation"
	"cdb/internal/render"
	"cdb/internal/snapshot"
	"cdb/internal/spatial"
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
	if *explain || *traceJSON != "" {
		s.tracer = obs.NewTracer()
		ec.Tracer = s.tracer
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
		f, err := os.Open(*dbPath)
		if err != nil {
			return err
		}
		d, err = db.Load(f, ec)
		f.Close()
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
		out, err := d.Run(*expr, ec)
		if err != nil {
			return err
		}
		printRelation(out, *maxRows)
		return s.report(os.Stdout)
	}
	if *rules != "" {
		prog, err := calculus.Parse(*rules)
		if err != nil {
			return err
		}
		out, err := prog.RunCtx(d.Env(), ec)
		if err != nil {
			return err
		}
		printRelation(out, *maxRows)
		return s.report(os.Stdout)
	}
	if fs.NArg() > 0 {
		for _, path := range fs.Args() {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			out, err := d.Run(string(src), ec)
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
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
// observability outputs (-stats table, -explain tree, -trace-json file).
type session struct {
	ec        *exec.Context
	tracer    *obs.Tracer
	stats     bool
	explain   bool
	traceJSON string
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
			fid, x, y, derr := spatial.Attrs(r.Schema())
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
			// Every statement's target persists, so later lines can build
			// on earlier ones; the printed result is normalised, as -e's is.
			root := s.ec.BeginSpan("query", line)
			_, res, err := prog.Exec(d.Env(), s.ec, func(target string, r *relation.Relation) {
				_ = d.Put(target, r) // Put fails only on an empty name; a parsed target has one
			})
			s.ec.EndSpan(root)
			if err != nil {
				fmt.Fprintln(out, err)
				continue
			}
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
