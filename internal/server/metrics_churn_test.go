package server

// Metrics exposition under concurrent session churn: sessions open, run
// cached queries and close while /metrics is scraped. The scrape must
// stay deterministic (sorted families, stable text) and the sat-cache
// counters must stay monotone — they belong to the server's one cache,
// which outlives every session. Run under
// -race this also exercises the flight recorder's Start/Finish path
// against concurrent /v1/queries and history reads.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

var satHitsRe = regexp.MustCompile(`(?m)^cdb_satcache_hits_total ([0-9]+)$`)
var satMissesRe = regexp.MustCompile(`(?m)^cdb_satcache_misses_total ([0-9]+)$`)

func scrapeMetrics(url string) (string, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("metrics status %d", resp.StatusCode)
	}
	return string(b), nil
}

func counterValue(t *testing.T, text string, re *regexp.Regexp) int64 {
	t.Helper()
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("exposition missing %v:\n%s", re, text)
	}
	n, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestMetricsExpositionUnderSessionChurn(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// One full lifecycle per iteration: open, query, close. The
				// query is a three-variable join (t, x, y), so its operator
				// asks the sat-cache; normalising a two-variable result no
				// longer does.
				status, body, err := postBody(ts.URL+"/v1/sessions", `{"par": 1}`)
				if err != nil || status != http.StatusCreated {
					t.Errorf("churn %d: open: %d %v", w, status, err)
					return
				}
				var info sessionInfo
				if err := json.Unmarshal(body, &info); err != nil {
					t.Errorf("churn %d: open decode: %v", w, err)
					return
				}
				status, body, err = postBody(ts.URL+"/v1/query", fmt.Sprintf(
					`{"session": %q, "query": "R = join Landownership and Land"}`, info.ID))
				if err != nil || status != http.StatusOK {
					t.Errorf("churn %d: query: %d %v %s", w, status, err, body)
					return
				}
				req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+info.ID, nil)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Errorf("churn %d: close: %v", w, err)
					return
				}
				resp.Body.Close()
			}
		}(w)
	}

	// Scrape concurrently with the churn: the sat-cache counters must
	// never move backwards while the sessions that drive them come and go.
	var lastHits, lastMisses int64
	deadline := time.Now().Add(250 * time.Millisecond)
	for time.Now().Before(deadline) {
		text, err := scrapeMetrics(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		hits := counterValue(t, text, satHitsRe)
		misses := counterValue(t, text, satMissesRe)
		if hits < lastHits || misses < lastMisses {
			t.Fatalf("sat-cache counters moved backwards: hits %d->%d, misses %d->%d",
				lastHits, hits, lastMisses, misses)
		}
		lastHits, lastMisses = hits, misses
		// Concurrent reads of the flight surfaces must be safe too.
		if _, body := getJSON(t, ts.URL+"/v1/queries"); body == nil {
			t.Fatal("queries listing failed")
		}
		if _, body := getJSON(t, ts.URL+"/v1/queries/recent?limit=4"); body == nil {
			t.Fatal("recent listing failed")
		}
	}
	close(stop)
	wg.Wait()

	// Quiesced: every churn session closed itself, so nothing in the
	// exposition is time-varying and two consecutive scrapes are
	// byte-identical.
	a, err := scrapeMetrics(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scrapeMetrics(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("idle scrapes differ:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	if !strings.Contains(a, "cqacdbd_sessions_active 0") {
		t.Fatalf("churn sessions leaked:\n%s", grepLines(a, "sessions_active"))
	}
	if lastHits+lastMisses == 0 {
		t.Fatal("churn produced no sat-cache traffic; the monotonicity check was vacuous")
	}
}
