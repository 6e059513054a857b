package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestOpCountersCoverOpStats: every int64 counter field of OpStats has
// exactly one row in the table (EstPairs is the planner's estimate, not a
// counter), and no two rows share a name or a field.
func TestOpCountersCoverOpStats(t *testing.T) {
	var s OpStats
	rows := map[*int64]string{}
	names := map[string]bool{}
	for _, c := range OpCounters {
		p := c.Field(&s)
		if prev, dup := rows[p]; dup {
			t.Errorf("rows %q and %q name the same field", prev, c.Name)
		}
		if names[c.Name] {
			t.Errorf("row name %q declared twice", c.Name)
		}
		rows[p], names[c.Name] = c.Name, true
	}
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if f.Type != reflect.TypeOf(int64(0)) || f.Name == "EstPairs" {
			continue
		}
		if _, ok := rows[v.Field(i).Addr().Interface().(*int64)]; !ok {
			t.Errorf("OpStats.%s has no row in OpCounters", f.Name)
		}
	}
}

func TestOpStatsJSON(t *testing.T) {
	// Zero counters are left out, the tuple counts are not.
	b, err := json.Marshal(OpStats{Op: "project", Wall: 1500 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"op":"project","in":0,"out":0,"wall_ms":1.5}`; string(b) != want {
		t.Errorf("unary record = %s, want %s", b, want)
	}
	// Every field set: counters in table order, then the planner's fields,
	// and the encoding round-trips.
	s := OpStats{Op: "join", Strategy: "sweep", EstPairs: 99, Wall: 2 * time.Millisecond, Parallel: true}
	for i, c := range OpCounters {
		*c.Field(&s) = int64(100 - i)
	}
	b, err = json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"op":"join","in":100,"out":99,"sat":98,"pruned":97,"pairs":96,"pairs_pruned":95,` +
		`"cache_hits":94,"cache_misses":93,"fm":92,"env":91,"vec":90,"vec_fallback":89,"float_rej":88,` +
		`"strategy":"sweep","est_pairs":99,"act_pairs":1,"wall_ms":2,"parallel":true}`
	if string(b) != want {
		t.Errorf("binary record =\n%s\nwant\n%s", b, want)
	}
	var back OpStats
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Errorf("round trip = %+v, want %+v", back, s)
	}
}

// TestOpCountersDocumented: docs/OBSERVABILITY.md's counter reference has
// a row for every counter of the table.
func TestOpCountersDocumented(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range OpCounters {
		if !strings.Contains(string(doc), "\n| `"+c.Name+"` |") {
			t.Errorf("docs/OBSERVABILITY.md has no counter-table row for %q", c.Name)
		}
	}
}

// TestOpStatsAddTo: folding a record adds each non-zero counter to its
// cdb_op_<name>_total{op} series and one observation to cdb_op_seconds{op};
// a counter that never moved has no series; and once an operator's series
// are resolved, a fold allocates nothing.
func TestOpStatsAddTo(t *testing.T) {
	reg := NewRegistry()
	s := OpStats{Op: "join", TuplesIn: 7, TuplesOut: 3, SatChecks: 2, Wall: time.Millisecond}
	s.AddTo(reg)
	s.AddTo(reg)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{`cdb_op_in_total{op="join"} 14`, `cdb_op_out_total{op="join"} 6`,
		`cdb_op_sat_total{op="join"} 4`, `cdb_op_seconds_count{op="join"} 2`} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "cdb_op_env_total") {
		t.Errorf("a counter that never moved has a series:\n%s", out)
	}
	if n := testing.AllocsPerRun(20, func() { s.AddTo(reg) }); n != 0 {
		t.Errorf("a fold into resolved series allocated %v times", n)
	}
}
