package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// mountedServer serves Mount's endpoints on a test listener.
func mountedServer(t *testing.T, reg *Registry) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	Mount(mux, reg)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestServeMetrics: a mux Mount has run on serves the registry on
// /metrics, the runtime's expvars (and no copy of the registry) on
// /debug/vars and the pprof index.
func TestServeMetrics(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("cdb_http_test_total", "HTTP test counter.").Add(7)
	base := mountedServer(t, reg).URL

	code, body := getBody(t, base+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "cdb_http_test_total 7") {
		t.Errorf("/metrics: code %d, body:\n%s", code, body)
	}

	code, body = getBody(t, base+"/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars: code %d", code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Error("/debug/vars has no memstats")
	}
	if _, ok := vars["cdb"]; ok {
		t.Error("/debug/vars carries a copy of the registry under \"cdb\"")
	}

	// pprof is mounted (cmdline is cheap and always available).
	code, _ = getBody(t, base+"/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: code %d", code)
	}
	code, body = getBody(t, base+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index: code %d", code)
	}
}

func TestMetricsContentType(t *testing.T) {
	resp, err := http.Get(mountedServer(t, NewRegistry()).URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want the 0.0.4 text exposition type", ct)
	}
}
