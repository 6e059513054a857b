package server

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cdb/internal/obs"
	"cdb/internal/snapshot"
)

// TestMetricFamiliesDocumented: every family a daemon with the default
// sat-cache and a snapshot store exposes, once it has run a query and a
// commit, has its own row in docs/OBSERVABILITY.md's metric table, with the
// type /metrics declares. A cdb_op_<counter>_total family is a row of the
// operator-counter table instead, which TestOpCountersDocumented reads.
func TestMetricFamiliesDocumented(t *testing.T) {
	st, err := snapshot.Open(t.TempDir(), snapshot.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, ts := newTestServer(t, Config{Snapshots: st}, nil)
	id := openSession(t, ts, ``)
	if status, _, body := runQueryReq(t, ts, `{"session": "`+id+`", "query": "R = join Landownership and Land"}`); status != http.StatusOK {
		t.Fatalf("query: %d %s", status, body)
	}
	if status, body, _ := postJSON(t, ts.URL+"/v1/dbs/hurricane/snapshots", ``); status != http.StatusCreated {
		t.Fatalf("commit: %d %s", status, body)
	}
	text, err := scrapeMetrics(ts.URL)
	if err != nil {
		t.Fatal(err)
	}

	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "\n## Metric families\n")
	if !ok {
		t.Fatal(`docs/OBSERVABILITY.md has no "## Metric families" section`)
	}
	table, _, _ = strings.Cut(table, "\n## ")
	rows := map[string]string{} // family name -> its row
	for _, line := range strings.Split(table, "\n") {
		name, ok := strings.CutPrefix(line, "| `")
		if !ok {
			continue
		}
		if i := strings.IndexAny(name, "`{"); i >= 0 {
			rows[name[:i]] = line
		}
	}
	counters := map[string]bool{}
	for _, c := range obs.OpCounters {
		counters["cdb_op_"+c.Name+"_total"] = true
	}

	families := 0
	for _, line := range strings.Split(text, "\n") {
		f, ok := strings.CutPrefix(line, "# TYPE ")
		if !ok {
			continue
		}
		families++
		name, typ, _ := strings.Cut(f, " ")
		if counters[name] {
			continue
		}
		row, ok := rows[name]
		if !ok {
			t.Errorf("docs/OBSERVABILITY.md's metric table has no row for %s (%s)", name, typ)
		} else if !strings.Contains(row, "| "+typ+" |") {
			t.Errorf("docs/OBSERVABILITY.md's row for %s does not say %s: %s", name, typ, row)
		}
	}
	if families == 0 {
		t.Fatal("/metrics declared no family")
	}
}
