package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cdb/internal/constraint"
	"cdb/internal/cqa"
	"cdb/internal/db"
	"cdb/internal/exec"
	"cdb/internal/snapshot"
)

// httpLeg is the traced pass's HTTP half, run while the daemon is still
// up: one pool pass, timing each request from the client side
// and reading the server's own elapsed_ms from the reply, so that the
// difference is what HTTP, JSON and the session layer add. The requests
// are the plain ones of the measured window ("stats": true would grow the
// very response whose cost is being measured).
func httpLeg(cfg *runConfig, c *client, pool []request, res *result) {
	sp := cfg.speed
	var overhead, open []interval
	var kb []float64
	for i := 0; i < cfg.tracePool && i < len(pool); i++ {
		r := &pool[i]
		t0 := time.Now()
		rep, err := c.ask(r, "")
		iv := since(t0)
		res.count(err)
		if err == nil {
			iv.ms -= rep.elapsedMS
			overhead = append(overhead, iv)
			kb = append(kb, float64(rep.bytes)/1024)
		}
		sp.tickIfDue()
	}
	for i := 0; i < 8; i++ {
		t0 := time.Now()
		sid, err := c.openSession("")
		iv := since(t0)
		if err == nil {
			open = append(open, iv)
			_, err = c.call("DELETE", "/v1/sessions/"+sid, nil)
		}
		res.count(err)
		sp.tick()
	}
	res.metrics["server.overhead_p50_ms"] = median(sp.nominals(overhead))
	res.metrics["server.response_kb_per_query"] = mean(kb)
	res.metrics["server.session_open_ms"] = median(sp.nominals(open))
}

// opTotals sums exec.OpStats over the requests of one in-process pass.
type opTotals struct {
	requests                          int
	opWallMS                          map[string][]float64 // per request, summed per operator name
	opSumMS                           []float64            // per request, summed over all operators
	pairs, pruned, est                int64
	tuplesOut                         int64
	strategy                          map[string]int64
	ops, parallelOps                  int64
	sat, fm, hits, misses             int64
	vecHits, vecFalls, vecFloatReject int64
}

// add takes in one request's operator records; their wall times are
// divided by slowdown, the machine's while the request ran.
func (t *opTotals) add(stats []exec.OpStats, out int, slowdown float64) {
	t.requests++
	t.tuplesOut += int64(out)
	wall := map[string]float64{}
	var sum float64
	for _, s := range stats {
		ms := float64(s.Wall.Nanoseconds()) / 1e6 / slowdown
		wall[s.Op] += ms
		sum += ms
		t.pairs += s.PairsTotal
		t.pruned += s.PairsPruned
		t.est += s.EstPairs
		if s.Strategy != "" {
			t.strategy[s.Strategy]++
		}
		t.ops++
		if s.Parallel {
			t.parallelOps++
		}
		t.sat += s.SatChecks
		t.fm += s.FMDecisions
		t.hits += s.CacheHits
		t.misses += s.CacheMisses
		t.vecHits += s.VectorHits
		t.vecFalls += s.VectorFalls
		t.vecFloatReject += s.FloatRejects
	}
	for _, op := range []string{"select", "project", "join", "difference"} {
		t.opWallMS[op] = append(t.opWallMS[op], wall[op])
	}
	t.opSumMS = append(t.opSumMS, sum)
}

// pass replays reqs in-process on ec, verifying every digest, and returns
// each request's wall time in nominal milliseconds. tr and tot are nil on
// the plain passes.
func pass(sp *speedometer, env cqa.Env, reqs []request, ec *exec.Context, tr *tracer, tot *opTotals, res *result) []float64 {
	type done struct {
		iv    interval
		stats []exec.OpStats
		out   int
	}
	ran := make([]done, len(reqs))
	for i := range reqs {
		r := &reqs[i]
		t0 := time.Now()
		root := tr.beginRequest()
		ec.Reset()
		rel, err := evaluate(env, r, ec, tr)
		if err == nil {
			var got string
			if got, _, err = render(rel, tr); err == nil && got != r.want {
				err = fmt.Errorf("in-process digest mismatch: got %s want %s for %q", got, r.want, firstLine(r))
			}
		}
		tr.end(root)
		ran[i].iv = since(t0)
		if tot != nil && err == nil {
			ran[i].stats, ran[i].out = append([]exec.OpStats(nil), ec.Stats()...), rel.Len()
		}
		res.count(err)
		sp.tickIfDue()
	}
	sp.burst(calMinUnits / 2)
	walls := make([]float64, len(reqs))
	for i, d := range ran {
		walls[i] = sp.nominal(d.iv)
		if d.stats != nil {
			tot.add(d.stats, d.out, sp.slowdown(d.iv.t0, d.iv.t1))
		}
	}
	return walls
}

// defaultContext is a session's execution context under the daemon's
// default flags: GOMAXPROCS workers, the planner's choice of strategy,
// and a default-size sat-cache.
func defaultContext(par int) *exec.Context {
	ec := exec.New(par)
	ec.SatCache = constraint.NewSatCache(0)
	return ec
}

// tracedPass is the in-process half of the traced pass: the pool prefix
// is replayed through the layers' public functions with a span at each
// boundary, the operator records are read from exec.Context.Stats, and
// the kernel probes run on the workload's own tuples. Its results must
// match the reference digests like the daemon's.
func tracedPass(cfg *runConfig, loaded *db.Database, pool []request, res *result) error {
	reqs := pool
	if len(reqs) > cfg.tracePool {
		reqs = reqs[:cfg.tracePool]
	}
	m := res.metrics
	env := loaded.Env()
	tr := newTracer()
	sp := cfg.speed
	sp.burst(calMinUnits / 2)

	// Pass 1 fills the memos a long-lived session has (canonical forms,
	// envelopes, vector forms, the sat-cache); pass 2 is the plain timing;
	// pass 3 is traced; pass 4 is pass 2 with one worker.
	ec := defaultContext(0)
	pass(sp, env, reqs, ec, nil, nil, res)
	plain := pass(sp, env, reqs, ec, nil, nil, res)
	tot := &opTotals{opWallMS: map[string][]float64{}, strategy: map[string]int64{}}
	ev0 := ec.SatCache.Stats().Evictions
	traced := pass(sp, env, reqs, ec, tr, tot, res)
	evictions := ec.SatCache.Stats().Evictions - ev0
	ec1 := defaultContext(1)
	pass(sp, env, reqs, ec1, nil, nil, res)
	seq := pass(sp, env, reqs, ec1, nil, nil, res)

	if cfg.w.churn {
		if err := churnInProcess(cfg, loaded, pool, tr, res); err != nil {
			return err
		}
	}

	// Query-layer self times come from pass 3's requests alone; the churn
	// operations that follow them are the only ones with snapshot spans.
	self := tr.selfTimes(sp)
	queries := self[:len(reqs)]
	n := float64(tot.requests)
	for _, name := range []string{"cqa.eval", "relation.normalize", "relation.render"} {
		m[name+"_ms"] = medianSelf(queries, name, 1)
	}
	m["query.parse_us"] = medianSelf(queries, "query.parse", 1000)
	m["calculus.parse_us"] = medianSelf(queries, "calculus.parse", 1000)
	for _, name := range []string{"snapshot.commit", "snapshot.fork", "snapshot.materialize", "snapshot.release"} {
		m[name+"_ms"] = medianSelf(self, name, 1)
	}
	if !cfg.w.churn {
		for _, name := range []string{"pages_written_per_commit", "shared_page_share",
			"wal_bytes_per_commit", "fsyncs_per_commit", "stored_bytes_per_user_byte"} {
			m["snapshot."+name] = 0
		}
	}
	for op, ms := range tot.opWallMS {
		m["cqa."+op+"_ms"] = median(ms)
	}
	// What evaluation spends outside its operators: lowering, the planner
	// and its estimator. Only meaningful when every request verified, which
	// keeps the two per-request series aligned.
	var planMS []float64
	if len(tot.opSumMS) == len(queries) {
		for i, sum := range tot.opSumMS {
			planMS = append(planMS, queries[i]["cqa.eval"]-sum)
		}
	}
	m["cqa.plan_ms"] = median(planMS)
	m["cqa.pairs_per_query"] = ratio(float64(tot.pairs), n)
	m["cqa.pairs_pruned_share"] = ratio(float64(tot.pruned), float64(tot.pairs))
	m["cqa.est_over_act_pairs"] = ratio(float64(tot.est), float64(tot.pairs-tot.pruned))
	m["cqa.tuples_out_per_query"] = ratio(float64(tot.tuplesOut), n)
	var binary int64
	for _, c := range tot.strategy {
		binary += c
	}
	for _, s := range []string{exec.PlanDense, exec.PlanSweep, exec.PlanIndex, exec.PlanVector} {
		m["cqa.strategy_"+s+"_share"] = ratio(float64(tot.strategy[s]), float64(binary))
	}
	m["exec.parallel_op_share"] = ratio(float64(tot.parallelOps), float64(tot.ops))
	m["exec.par_speedup"] = ratio(sum(seq), sum(plain))
	m["constraint.sat_checks_per_query"] = ratio(float64(tot.sat), n)
	m["constraint.fm_decisions_per_query"] = ratio(float64(tot.fm), n)
	m["constraint.satcache_hit_share"] = ratio(float64(tot.hits), float64(tot.hits+tot.misses))
	m["constraint.satcache_evictions_per_query"] = ratio(float64(evictions), n)
	m["vector.hits_per_query"] = ratio(float64(tot.vecHits), n)
	m["vector.fallback_share"] = ratio(float64(tot.vecFalls), float64(tot.vecHits+tot.vecFalls))
	m["vector.float_reject_share"] = ratio(float64(tot.vecFloatReject), float64(tot.vecHits))
	// Request by request, so that one disturbed request does not decide it.
	extra := make([]float64, len(plain))
	for i := range plain {
		extra[i] = traced[i] - plain[i]
	}
	m["trace.overhead_share"] = ratio(median(extra), median(plain))
	var rootSelf, rootWall float64
	for _, s := range self {
		rootSelf += s["request"]
	}
	for _, w := range tr.requestWalls(sp) {
		rootWall += w
	}
	m["trace.unattributed_share"] = ratio(rootSelf, rootWall)

	probes(sp, cfg.w, loaded, m)

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	return tr.writeFile(filepath.Join(cfg.outDir, "trace-"+cfg.w.name+".json"))
}

// medianSelf is the median, over the requests that have a span of this
// name, of the name's self time, in milliseconds times scale.
func medianSelf(self []map[string]float64, name string, scale float64) float64 {
	var vs []float64
	for _, s := range self {
		if v, ok := s[name]; ok {
			vs = append(vs, v*scale)
		}
	}
	return median(vs)
}

// churnInProcess replays snapshot-churn's operations against a store of
// its own, calling the snapshot layer the way the daemon's handlers do,
// with a span around each call. The counts are deterministic: the number
// of operations is fixed.
func churnInProcess(cfg *runConfig, loaded *db.Database, pool []request, tr *tracer, res *result) error {
	dir := filepath.Join(cfg.scratch, "snap-inproc")
	st, err := snapshot.Open(dir, snapshot.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	ec := defaultContext(0)
	base := loaded.Env()
	s0 := st.Stats()
	op := func(k int) error {
		root := tr.beginRequest()
		defer tr.end(root)
		// The session's state: the base plus two bound (raw) results.
		state := db.New()
		for _, name := range loaded.Names() {
			rel, _ := loaded.Get(name)
			if err := state.Put(name, rel); err != nil {
				return err
			}
		}
		for j, target := range []string{"Q1", "Q2"} {
			r := retarget(&pool[(3*k+j)%len(pool)], target)
			ec.Reset()
			rel, err := evaluate(base, r, ec, tr)
			if err != nil {
				return err
			}
			if got, _, err := render(rel, tr); err != nil || got != r.want {
				return fmt.Errorf("in-process churn lookup: digest %s want %s (%v)", got, r.want, err)
			}
			if err := state.Put(target, rel); err != nil {
				return err
			}
		}
		sp := tr.begin("snapshot.commit")
		snap, err := st.CommitCtx(state, "", "bench", ec)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("snapshot.fork")
		fork, err := st.Fork(snap.ID)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("snapshot.materialize")
		mat, err := st.MaterializeCtx(fork.ID, ec)
		tr.end(sp)
		if err != nil {
			return err
		}
		r := &pool[(3*k+2)%len(pool)]
		ec.Reset()
		rel, err := evaluate(mat.Env(), r, ec, tr)
		if err != nil {
			return err
		}
		if got, _, err := render(rel, tr); err != nil || got != r.want {
			return fmt.Errorf("in-process fork lookup: digest %s want %s (%v)", got, r.want, err)
		}
		sp = tr.begin("snapshot.release")
		err = st.Release(fork.ID)
		if err == nil {
			err = st.Release(snap.ID)
		}
		tr.end(sp)
		return err
	}
	// The first half of the operations commit into a store with no other
	// snapshot live, so every page is written and released again (the
	// free-list path); from half way on a snapshot of the base stays live
	// and commits share its pages (the dedup path), as they do in a
	// daemon that holds another snapshot of the same base.
	var live snapshot.Snapshot
	for k := 0; k < cfg.tracePool; k++ {
		if k == cfg.tracePool/2 {
			if live, err = st.Commit(loaded, "", "bench"); err != nil {
				return err
			}
		}
		res.count(op(k))
		cfg.speed.tickIfDue()
	}
	cfg.speed.burst(calMinUnits / 2)
	s1 := st.Stats()
	commits := float64(s1.Commits - s0.Commits)
	m := res.metrics
	m["snapshot.pages_written_per_commit"] = ratio(float64(s1.PagesWritten-s0.PagesWritten), commits)
	m["snapshot.shared_page_share"] = ratio(float64(s1.PagesShared-s0.PagesShared),
		float64(s1.PagesShared-s0.PagesShared+s1.PagesWritten-s0.PagesWritten))
	m["snapshot.wal_bytes_per_commit"] = ratio(float64(s1.WALBytes-s0.WALBytes), commits)
	m["snapshot.fsyncs_per_commit"] = ratio(float64(s1.WALFlushes-s0.WALFlushes), commits)
	var stored int64
	for _, f := range []string{"pages.cdb", "wal.log"} {
		fi, err := os.Stat(filepath.Join(dir, f))
		if err != nil {
			return err
		}
		stored += fi.Size()
	}
	user, err := os.Stat(filepath.Join(cfg.scratch, "bench.cqa"))
	if err != nil {
		return err
	}
	m["snapshot.stored_bytes_per_user_byte"] = ratio(float64(stored), float64(user.Size()))
	return st.Release(live.ID)
}
