package obs

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestNewQueryID(t *testing.T) {
	re := regexp.MustCompile(`^q[0-9]+-[0-9a-f]{8}$`)
	a, b := NewQueryID(), NewQueryID()
	for _, id := range []string{a, b} {
		if !re.MatchString(id) {
			t.Fatalf("query id %q does not match %v", id, re)
		}
	}
	if a == b {
		t.Fatalf("consecutive query ids collide: %q", a)
	}
}

// TestFormatQueryID: ids are the bytes of their former fmt form.
func TestFormatQueryID(t *testing.T) {
	for _, c := range []struct {
		seq    int64
		suffix []byte
	}{
		{1, []byte{0xde, 0xad, 0xbe, 0xef}},
		{42, []byte{0, 1, 0x0a, 0xf0}},
		{1 << 62, []byte{0xff, 0xff, 0xff, 0xff}},
		{7, nil},
	} {
		want := fmt.Sprintf("q%d", c.seq)
		if c.suffix != nil {
			want = fmt.Sprintf("q%d-%s", c.seq, hex.EncodeToString(c.suffix))
		}
		if got := formatQueryID(c.seq, c.suffix); got != want {
			t.Errorf("formatQueryID(%d, %x) = %q, want %q", c.seq, c.suffix, got, want)
		}
	}
}

func TestOutcomeOf(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, OutcomeOK},
		{context.DeadlineExceeded, OutcomeTimeout},
		{fmt.Errorf("wrapped: %w", context.DeadlineExceeded), OutcomeTimeout},
		{context.Canceled, OutcomeCanceled},
		{fmt.Errorf("wrapped: %w", context.Canceled), OutcomeCanceled},
		{errors.New("parse error"), OutcomeError},
	}
	for _, c := range cases {
		if got := OutcomeOf(c.err); got != c.want {
			t.Errorf("OutcomeOf(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

func TestNilFlightIsNoOp(t *testing.T) {
	var f *Flight
	f.Start("q1", "s", "stmt", nil, nil)
	if f.Cancel("q1") {
		t.Fatal("nil flight canceled something")
	}
	f.Finish(FlightRecord{ID: "q1"})
	if got := f.Active(); got != nil {
		t.Fatalf("nil flight Active = %v", got)
	}
	if got := f.Recent(0, 0); got != nil {
		t.Fatalf("nil flight Recent = %v", got)
	}
	if f.Len() != 0 {
		t.Fatal("nil flight Len != 0")
	}
}

func TestFlightRingEviction(t *testing.T) {
	f := NewFlight(3)
	for i := 1; i <= 5; i++ {
		f.Finish(FlightRecord{ID: fmt.Sprintf("q%d", i), WallMS: float64(i)})
	}
	if f.Len() != 3 {
		t.Fatalf("ring len = %d, want 3", f.Len())
	}
	got := f.Recent(0, 0)
	want := []string{"q5", "q4", "q3"} // newest first, eldest two evicted
	if len(got) != len(want) {
		t.Fatalf("Recent returned %d records, want %d", len(got), len(want))
	}
	for i, rec := range got {
		if rec.ID != want[i] {
			t.Fatalf("Recent[%d] = %q, want %q (full: %+v)", i, rec.ID, want[i], got)
		}
	}
}

func TestRecentFiltersAndLimit(t *testing.T) {
	f := NewFlight(8)
	for i := 1; i <= 6; i++ {
		f.Finish(FlightRecord{ID: fmt.Sprintf("q%d", i), WallMS: float64(i * 10)})
	}
	// min_ms filter: only queries at least 35ms of wall time.
	got := f.Recent(35*time.Millisecond, 0)
	if len(got) != 3 || got[0].ID != "q6" || got[2].ID != "q4" {
		t.Fatalf("min-wall filter: %+v", got)
	}
	// limit truncates after filtering, newest first.
	got = f.Recent(0, 2)
	if len(got) != 2 || got[0].ID != "q6" || got[1].ID != "q5" {
		t.Fatalf("limit: %+v", got)
	}
}

func TestActiveAndCancel(t *testing.T) {
	f := NewFlight(4)
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	f.Start("q1", "s1", "R = join A and B", cancel1, func() []string { return []string{"sweep"} })
	f.Start("q2", "s2", "R = select x from A", nil, nil)

	active := f.Active()
	if len(active) != 2 || active[0].ID != "q1" || active[1].ID != "q2" {
		t.Fatalf("active listing: %+v", active)
	}
	if got := active[0].Strategies; len(got) != 1 || got[0] != "sweep" {
		t.Fatalf("progress strategies: %v", got)
	}
	if active[1].Strategies != nil {
		t.Fatalf("nil progress reported strategies: %v", active[1].Strategies)
	}

	if f.Cancel("nope") {
		t.Fatal("Cancel of unknown id reported true")
	}
	if !f.Cancel("q1") {
		t.Fatal("Cancel of live query reported false")
	}
	if ctx1.Err() == nil {
		t.Fatal("Cancel did not fire the context cancellation")
	}
	// A cancelled query stays listed until its Finish record arrives.
	if got := f.Active(); len(got) != 2 {
		t.Fatalf("cancelled query left the registry early: %+v", got)
	}
	f.Finish(FlightRecord{ID: "q1", Outcome: OutcomeCanceled})
	if got := f.Active(); len(got) != 1 || got[0].ID != "q2" {
		t.Fatalf("registry after finish: %+v", got)
	}
}

func TestFlightNDJSONLog(t *testing.T) {
	var buf bytes.Buffer
	f := NewFlight(4)
	f.Log = &buf
	f.Finish(FlightRecord{ID: "q1", Statement: "R = join A and B",
		WallMS: 2.5, Rows: 7, Outcome: OutcomeOK, CacheHitRate: -1})
	f.Finish(FlightRecord{ID: "q2", Outcome: OutcomeError, Error: "boom", CacheHitRate: -1})

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("query log has %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var rec FlightRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line 1 is not JSON: %v", err)
	}
	if rec.ID != "q1" || rec.Rows != 7 || rec.Outcome != OutcomeOK || rec.CacheHitRate != -1 {
		t.Fatalf("record round-trip: %+v", rec)
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil || rec.Error != "boom" {
		t.Fatalf("error record round-trip: %v %+v", err, rec)
	}
}

func TestFlightMetricsFamilies(t *testing.T) {
	reg := NewRegistry()
	f := NewFlight(4)
	f.Metrics = reg
	f.Finish(FlightRecord{ID: "q1", WallMS: 3, Rows: 12, Outcome: OutcomeOK,
		Ops: []OpStats{{Op: "join", Strategy: "dense", EstPairs: 64, PairsTotal: 8}}})
	f.Finish(FlightRecord{ID: "q2", WallMS: 5, Outcome: OutcomeTimeout})

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`cdb_query_duration_seconds_count{outcome="ok"} 1`,
		`cdb_query_duration_seconds_count{outcome="timeout"} 1`,
		"cdb_query_rows_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestTracerQueryIDStamping(t *testing.T) {
	tr := NewTracer()
	tr.QueryID = "q9-deadbeef"
	root := tr.StartSpan("query", "R = join A and B")
	child := root.StartChild("join", "")
	child.End()
	root.End()
	if got := root.Label("query_id"); got != "q9-deadbeef" {
		t.Fatalf("root span query_id label = %q", got)
	}
	if got := child.Label("query_id"); got != "" {
		t.Fatalf("child span unexpectedly labelled: %q", got)
	}

	// Slow-span records carry the id too.
	var buf bytes.Buffer
	tr2 := NewTracer()
	tr2.QueryID = "q10-cafecafe"
	tr2.SlowThreshold = time.Nanosecond
	tr2.Logger = slog.New(slog.NewTextHandler(&buf, nil))
	sp := tr2.StartSpan("query", "slow one")
	time.Sleep(time.Millisecond)
	sp.End()
	if !strings.Contains(buf.String(), "query=q10-cafecafe") {
		t.Fatalf("slow-span log missing query id:\n%s", buf.String())
	}
}
