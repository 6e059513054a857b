package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cdb/internal/db"
)

// runConfig is one run of one workload.
type runConfig struct {
	w         workload
	seed      int64
	pool      int           // request-pool size (w.pool outside the smoke test)
	tracePool int           // requests the traced pass replays
	setups    int           // set-up is repeated this often and its median reported
	warmup    time.Duration // discarded
	window    time.Duration // measured
	untraced  bool          // report the end-to-end metrics
	traced    bool          // run the traced pass and report the per-layer metrics
	daemonBin string
	scratch   string // this run's own directory: db file, snapshot dirs
	outDir    string // trace-<workload>.json goes here
	speed     *speedometer

	// tamper, when set (tests only), edits the pool after the reference
	// digests are computed.
	tamper func(pool []request)
}

// result is what one run measured.
type result struct {
	workload  string
	attempted int // operations sent, in every phase
	failed    int // transport errors + non-2xx + digest mismatches
	firstErr  error
	samples   int // latency samples behind the percentiles
	metrics   map[string]float64
}

// ok reports whether every operation of the run succeeded and verified.
func (r *result) ok() bool { return r.failed == 0 }

func (r *result) count(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
}

// ask runs r on session (the client's own when empty), waits for the
// whole reply, reduces it to its digest and compares that with the
// reference.
func (c *client) ask(r *request, session string) (reply, error) {
	rep, err := c.query(r, session)
	if err != nil {
		return reply{}, err
	}
	if got := digest(rep.schema, rep.tuples); got != r.want {
		return reply{}, fmt.Errorf("digest mismatch: got %s want %s for %q", got, r.want, firstLine(r))
	}
	return rep, nil
}

func firstLine(r *request) string {
	src := r.Query
	if src == "" {
		src = r.Rules
	}
	line, _, _ := strings.Cut(src, "\n")
	return line
}

// queryOp is one operation of a query workload: send pool entry i, wait
// for the whole reply, check it.
func queryOp(c *client, pool []request, i int) error {
	_, err := c.ask(&pool[i%len(pool)], "")
	return err
}

// retarget renames the binding a single-statement lookup leaves on its
// session, so that one session can bind several results.
func retarget(r *request, target string) *request {
	c := *r
	if r.Rules != "" {
		c.Target = target
	} else {
		c.Query = target + strings.TrimPrefix(r.Query, "R")
	}
	return &c
}

// churnOp is one operation of snapshot-churn: a whole life cycle of a
// session, a snapshot of it, a fork, and a session on the fork. Every
// step must succeed and every query must verify.
func churnOp(c *client, pool []request, k int) error {
	q := func(j int) *request { return &pool[(3*k+j)%len(pool)] }
	sid, err := c.openSession("")
	if err != nil {
		return err
	}
	for j, target := range []string{"Q1", "Q2"} {
		if _, err := c.ask(retarget(q(j), target), sid); err != nil {
			return err
		}
	}
	snap, err := c.callID("POST", "/v1/sessions/"+sid+"/snapshot", nil)
	if err != nil {
		return err
	}
	fork, err := c.callID("POST", "/v1/snapshots/"+snap+"/fork", nil)
	if err != nil {
		return err
	}
	sid2, err := c.openSession(fork)
	if err != nil {
		return err
	}
	if _, err := c.ask(q(2), sid2); err != nil {
		return err
	}
	for _, path := range []string{"/v1/sessions/" + sid, "/v1/sessions/" + sid2,
		"/v1/snapshots/" + fork, "/v1/snapshots/" + snap} {
		if _, err := c.call("DELETE", path, nil); err != nil {
			return err
		}
	}
	return nil
}

// window is what one closed loop measured. Every time in it is divided by
// the machine's slowdown around the moment it was taken (speed.go).
type window struct {
	lat      []float64 // latency of each operation that verified, ms
	cpuMS    float64   // daemon user+system CPU
	slowdown float64   // the machine's mean slowdown over the loop
}

// busyS is the time the daemon spent serving the window's operations: with
// one closed-loop caller, the sum of their latencies.
func (w *window) busyS() float64 { return sum(w.lat) / 1000 }

// cpuEvery is how often drive reads the daemon's CPU time. The kernel
// counts it in ticks of 10 ms, so a shorter interval would be coarse.
const cpuEvery = 500 * time.Millisecond

// drive runs the closed loop for dur: one caller on one connection cycles
// the pool in fixed order and sends its next operation only when the
// previous one has completed, so two runs execute the same mix up to the
// cut-off. Between operations, while the daemon is idle, it runs the
// speedometer's units and reads the daemon's CPU time.
func drive(ctx context.Context, cfg *runConfig, d *daemon, c *client, pool []request, dur time.Duration, res *result) (*window, error) {
	op := queryOp
	if cfg.w.churn {
		op = churnOp
	}
	var ops, cpus []interval
	sp := cfg.speed
	sp.burst(calMinUnits)
	t0 := time.Now()
	p0, err := d.proc()
	if err != nil {
		return nil, err
	}
	cpuAt := t0
	readCPU := func(now time.Time) error {
		p1, err := d.proc()
		if err != nil {
			return err
		}
		cpus = append(cpus, interval{cpuAt, now, float64((p1.cpu - p0.cpu).Nanoseconds()) / 1e6})
		p0, cpuAt = p1, now
		return nil
	}
	for i := 0; ctx.Err() == nil && time.Since(t0) < dur; i++ {
		s := time.Now()
		err := op(c, pool, i)
		iv := since(s)
		res.count(err)
		if err == nil {
			ops = append(ops, iv)
		}
		if iv.t1.Sub(cpuAt) >= cpuEvery {
			if err := readCPU(iv.t1); err != nil {
				return nil, err
			}
		}
		sp.tickIfDue()
	}
	end := time.Now()
	if err := readCPU(end); err != nil {
		return nil, err
	}
	sp.burst(calMinUnits)
	w := &window{slowdown: sp.slowdown(t0, end)}
	w.lat = sp.nominals(ops)
	for _, iv := range cpus {
		w.cpuMS += iv.ms / sp.cpuSlowdown(iv.t0, iv.t1)
	}
	return w, ctx.Err()
}

// setupUnits is the size of the speedometer's bursts around a set-up:
// about 50 ms each.
const setupUnits = 16

// setUp is step 2 of a run: daemon exec, /healthz ok, session open, and
// one verified cold pass over the whole pool, which fills the daemon's
// canonical-form, envelope, vector-form and sat-cache memos. The time it
// returns is normalised by the machine's slowdown, measured in a burst of
// units before and one after.
func setUp(ctx context.Context, cfg *runConfig, dbFile, snapDir string, pool []request, res *result) (*daemon, *client, time.Duration, error) {
	cfg.speed.burst(setupUnits)
	t0 := time.Now()
	d, err := startDaemon(ctx, cfg.daemonBin, dbFile, snapDir)
	if err != nil {
		return nil, nil, 0, err
	}
	c := newClient(d.base)
	fail := func(err error) (*daemon, *client, time.Duration, error) {
		c.close()
		_ = d.kill()
		return nil, nil, 0, err
	}
	if err := c.waitHealthy(); err != nil {
		return fail(err)
	}
	if c.session, err = c.openSession(""); err != nil {
		return fail(err)
	}
	for i := range pool {
		res.count(queryOp(c, pool, i))
	}
	if cfg.w.churn {
		res.count(churnOp(c, pool, 0))
	}
	iv := since(t0)
	cfg.speed.burst(setupUnits)
	return d, c, time.Duration(cfg.speed.nominal(iv) * float64(time.Millisecond)), nil
}

// generate is step 1 of a run: the database and the request pool are made
// from the seed, the database is written as the file the daemon will load,
// and every pool entry's expected digest is computed on what that file
// loads back as. The daemon receives only the file and the requests. It
// also returns how long a load of the file takes (nominal ms, median of
// probeReps loads).
func generate(cfg *runConfig) (dbFile string, loaded *db.Database, pool []request, loadMS float64, err error) {
	gen, pool := cfg.w.build(cfg.seed, cfg.pool)
	dbFile = filepath.Join(cfg.scratch, "bench.cqa")
	if err := gen.SaveFile(dbFile); err != nil {
		return "", nil, nil, 0, err
	}
	loadMS = timeLoop(cfg.speed, 1, func() {}, func() { loaded, err = db.LoadFile(dbFile) }) / 1e3
	if err != nil {
		return "", nil, nil, 0, err
	}
	if err := computeReference(loaded.Env(), pool); err != nil {
		return "", nil, nil, 0, err
	}
	if cfg.tamper != nil {
		cfg.tamper(pool)
	}
	return dbFile, loaded, pool, loadMS, nil
}

// runWorkload performs one run: generate, set up, warm up, measure, and
// (when asked) the traced pass.
func runWorkload(ctx context.Context, cfg runConfig) (*result, error) {
	res := &result{workload: cfg.w.name, metrics: map[string]float64{}}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.scratch)

	// 1. Generate.
	dbFile, loaded, pool, loadMS, err := generate(&cfg)
	if err != nil {
		return nil, err
	}

	// 2. Set up, cfg.setups times on a fresh daemon; the last one stays.
	var (
		d       *daemon
		c       *client
		setupS  []float64
		snapDir string
	)
	// The daemon is stopped on every path out of here; a kill -9 restart
	// in the durability check replaces d.
	defer func() {
		if c != nil {
			c.close()
		}
		if d != nil {
			_ = d.kill()
		}
	}()
	for i := 0; i < cfg.setups; i++ {
		if d != nil {
			c.close()
			err := d.stop()
			d, c = nil, nil
			if err != nil {
				return nil, err
			}
		}
		if cfg.w.churn {
			snapDir = filepath.Join(cfg.scratch, fmt.Sprintf("snap%d", i))
		}
		var took time.Duration
		if d, c, took, err = setUp(ctx, &cfg, dbFile, snapDir, pool, res); err != nil {
			return nil, err
		}
		setupS = append(setupS, took.Seconds())
	}

	// 3. Warm-up, discarded (its failures still count).
	if _, err := drive(ctx, &cfg, d, c, pool, cfg.warmup, res); err != nil {
		return nil, err
	}

	// 4. Measured window. The daemon's counters are read over the caller's
	// own connection while it is idle, so no second connection is opened.
	m0, err := c.memstats()
	if err != nil {
		return nil, err
	}
	win, err := drive(ctx, &cfg, d, c, pool, cfg.window, res)
	if err != nil {
		return nil, err
	}
	p1, err := d.proc()
	if err != nil {
		return nil, err
	}
	m1, err := c.memstats()
	if err != nil {
		return nil, err
	}
	ops := float64(len(win.lat))
	res.samples = len(win.lat)
	res.metrics["machine.slowdown"] = win.slowdown
	if cfg.untraced {
		res.metrics["setup_s"] = median(setupS)
		res.metrics["queries_per_s"] = ratio(ops, win.busyS())
		res.metrics["latency_p50_ms"] = quantile(win.lat, 0.50)
		res.metrics["latency_p95_ms"] = quantile(win.lat, 0.95)
		res.metrics["cpu_ms_per_query"] = ratio(win.cpuMS, ops)
		res.metrics["peak_rss_mb"] = p1.hwmMB
	}
	if cfg.traced {
		res.metrics["process.allocs_per_query"] = ratio(float64(m1.Mallocs-m0.Mallocs), ops)
		res.metrics["process.alloc_kb_per_query"] = ratio(float64(m1.TotalAlloc-m0.TotalAlloc)/1024, ops)
		res.metrics["process.gc_cycles_per_s"] = ratio(float64(m1.NumGC-m0.NumGC), win.busyS())
		res.metrics["process.gc_pause_ms_per_s"] = ratio(float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6/win.slowdown, win.busyS())
		res.metrics["db.load_ms"] = loadMS
		if fi, err := os.Stat(dbFile); err == nil {
			res.metrics["db.file_kb"] = float64(fi.Size()) / 1024
		}
		httpLeg(&cfg, c, pool, res)
	}

	// 5. Durability: an acknowledged snapshot must survive kill -9.
	if cfg.w.churn {
		if d, c, err = durabilityCheck(ctx, &cfg, d, c, dbFile, snapDir, pool, res); err != nil {
			return nil, err
		}
	}
	c.close()
	err = d.stop()
	d, c = nil, nil
	if err != nil {
		return nil, err
	}

	// 6. The in-process half of the traced pass, with the daemon gone.
	if cfg.traced {
		if err := tracedPass(&cfg, loaded, pool, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// durabilityCheck commits one last snapshot, kills the daemon with
// kill -9, restarts it on the same snapshot directory, and requires the
// snapshot to list, fork, bind and serve the expected digest. Each step
// is an operation; a lost acknowledged snapshot counts as failed.
func durabilityCheck(ctx context.Context, cfg *runConfig, d *daemon, c *client, dbFile, snapDir string, pool []request, res *result) (*daemon, *client, error) {
	r := retarget(&pool[0], "Q1")
	var snap string
	commit := func() error {
		_, err := c.ask(r, "")
		if err != nil {
			return err
		}
		snap, err = c.callID("POST", "/v1/sessions/"+c.session+"/snapshot", nil)
		return err
	}
	res.count(commit())
	c.close()
	if err := d.kill(); err != nil {
		return nil, nil, err
	}
	d, err := startDaemon(ctx, cfg.daemonBin, dbFile, snapDir)
	if err != nil {
		return nil, nil, err
	}
	c = newClient(d.base)
	if err := c.waitHealthy(); err != nil {
		return d, c, err
	}
	recovered := func() error {
		if snap == "" {
			return fmt.Errorf("no snapshot was acknowledged before the kill")
		}
		if _, err := c.call("GET", "/v1/snapshots/"+snap, nil); err != nil {
			return fmt.Errorf("acknowledged snapshot lost across kill -9: %w", err)
		}
		fork, err := c.callID("POST", "/v1/snapshots/"+snap+"/fork", nil)
		if err != nil {
			return err
		}
		sid, err := c.openSession(fork)
		if err != nil {
			return err
		}
		// The bound result must have survived too: re-select from it.
		again := &request{Query: "R = select t >= 0 from Q1", want: r.want}
		for _, q := range []*request{&pool[1], again} {
			if _, err := c.ask(q, sid); err != nil {
				return err
			}
		}
		return nil
	}
	res.count(recovered())
	return d, c, nil
}
