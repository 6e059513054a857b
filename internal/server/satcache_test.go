package server

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"cdb/internal/constraint"
	"cdb/internal/obs"
)

// query3 is the paper's Query 3 (§3.3) as one request program.
const query3 = "R0 = join Landownership and Land\nR1 = join R0 and Hurricane\nR2 = select t >= 4, t <= 9 from R1\nR3 = project R2 on name"

// TestSatCacheSharedAcrossSessions: a decision is a fact about its inputs,
// so what one session paid for answers every other. Session A runs Query 3
// cold; a session B opened afterwards runs it again and reaches the
// eliminator not once — every join decision is a remembered pair.
func TestSatCacheSharedAcrossSessions(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	run := func(id string) queryResponse {
		t.Helper()
		status, resp, body := runQueryReq(t, ts, fmt.Sprintf(
			`{"session": %q, "query": %q, "stats": true}`, id, query3))
		if status != http.StatusOK || resp.Count == 0 {
			t.Fatalf("query 3: %d count %d %s", status, resp.Count, body)
		}
		return resp
	}
	a := run(openSession(t, ts, `{"par": 2}`))
	var coldMisses int64
	for _, op := range a.Stats {
		coldMisses += op.CacheMisses
	}
	if coldMisses == 0 {
		t.Fatalf("session A's Query 3 missed nothing; the test is vacuous: %+v", a.Stats)
	}

	b := openSession(t, ts, `{"par": 2}`)
	fm0 := constraint.DecisionCount()
	resp := run(b)
	if fm := constraint.DecisionCount() - fm0; fm != 0 {
		t.Fatalf("session B made %d Fourier-Motzkin decisions, want 0", fm)
	}
	var sat int64
	for _, op := range resp.Stats {
		if op.Op != "join" {
			continue
		}
		if op.CacheHits != op.SatChecks || op.FMDecisions != 0 {
			t.Fatalf("session B join row: sat %d, cache_hits %d, fm %d; want every decision a hit",
				op.SatChecks, op.CacheHits, op.FMDecisions)
		}
		sat += op.SatChecks
	}
	if sat == 0 {
		t.Fatalf("session B's joins asked the cache nothing: %+v", resp.Stats)
	}
	// Both replies' cache blocks report the one server cache.
	if resp.Cache == nil || a.Cache == nil || resp.Cache.Misses != a.Cache.Misses ||
		resp.Cache.Hits < a.Cache.Hits+sat {
		t.Fatalf("cache blocks are not one cache's: A %+v, B %+v", a.Cache, resp.Cache)
	}
}

// TestFlightHitRateFromOwnRows: two sessions query the shared cache at the
// same time — one warm, one running cold programs — and each flight record's
// cache_hit_rate is the ratio of its own operator rows, untouched by what
// the other session's decisions did to the cache's counters meanwhile.
func TestFlightHitRateFromOwnRows(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	// A third session warms the cache, so every one of warm's decisions is
	// a hit.
	warmup := openSession(t, ts, `{"par": 1}`)
	if status, _, body := runQueryReq(t, ts, fmt.Sprintf(`{"session": %q, "query": %q}`, warmup, query3)); status != http.StatusOK {
		t.Fatalf("warm-up: %d %s", status, body)
	}
	warm := openSession(t, ts, `{"par": 1}`)
	cold := openSession(t, ts, `{"par": 1}`)

	const rounds = 8
	var wg sync.WaitGroup
	errs := make(chan error, 2*rounds)
	query := func(id, prog string) {
		status, body, err := postBody(ts.URL+"/v1/query", fmt.Sprintf(`{"session": %q, "query": %q}`, id, prog))
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		if err != nil {
			errs <- err
		}
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			query(warm, query3)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			// A fresh rename each round: the renamed join is a new question.
			query(cold, fmt.Sprintf("L%d = rename x to x%d in Land\nJ = join Landownership and L%d", i, i, i))
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	recs := recentRecords(t, ts.URL+"/v1/queries/recent")
	if len(recs) != 2*rounds+1 {
		t.Fatalf("%d records, want %d", len(recs), 2*rounds+1)
	}
	for _, rec := range recs {
		if want := obs.CacheHitRate(rec.Ops, true); rec.CacheHitRate != want {
			t.Errorf("record %s (session %s): cache_hit_rate %v, its rows give %v",
				rec.ID, rec.Session, rec.CacheHitRate, want)
		}
		if rec.Session == warm && rec.CacheHitRate != 1 {
			t.Errorf("warm record %s: cache_hit_rate %v, want 1", rec.ID, rec.CacheHitRate)
		}
	}

	// Without a cache the rate is the −1 sentinel.
	_, bare := newTestServer(t, Config{DefaultSatCache: -1}, nil)
	id := openSession(t, bare, ``)
	if status, _, body := runQueryReq(t, bare, fmt.Sprintf(`{"session": %q, "query": %q}`, id, query3)); status != http.StatusOK {
		t.Fatalf("no-cache query: %d %s", status, body)
	}
	if recs := recentRecords(t, bare.URL+"/v1/queries/recent"); len(recs) != 1 || recs[0].CacheHitRate != -1 {
		t.Fatalf("no-cache record: %+v", recs)
	}
}

// postBody is a goroutine-safe POST: it returns errors instead of failing
// the test (FailNow must not run off the test goroutine).
func postBody(url, body string) (int, []byte, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}
