package server

// Wire-equivalence tests for the reply encoder (wire.go). The oracle is
// encoding/json configured as the handler configured it before the encoder
// existed: an Encoder with SetIndent("", "  ") over queryResponse for the
// buffered body, a plain Encoder over maps for the NDJSON lines.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cdb/internal/constraint"
	"cdb/internal/db"
	"cdb/internal/exec"
	"cdb/internal/rational"
	"cdb/internal/relation"
	"cdb/internal/schema"
)

// oracleReply is the buffered body as encoding/json writes it.
func oracleReply(t *testing.T, sessionID, qid string, res *queryResult, elapsedMS float64) []byte {
	t.Helper()
	tuples := make([]string, res.rows)
	for i, row := range res.rel.Rows()[:res.rows] {
		tuples[i] = row.String()
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(queryResponse{
		Session: sessionID, QueryID: qid, Target: res.target,
		Schema: res.rel.Schema().String(), Tuples: tuples, Count: res.rel.Len(),
		Truncated: res.truncated, ElapsedMS: elapsedMS,
		Stats: res.stats, Explain: res.explain, Trace: res.trace,
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// oracleStream is the NDJSON body as encoding/json writes it.
func oracleStream(t *testing.T, sessionID, qid string, res *queryResult, elapsedMS float64) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	lines := []any{map[string]any{
		"session": sessionID, "query_id": qid, "target": res.target,
		"schema": res.rel.Schema().String(), "count": res.rel.Len(),
	}}
	for _, row := range res.rel.Rows()[:res.rows] {
		lines = append(lines, map[string]string{"tuple": row.String()})
	}
	trailer := map[string]any{"done": true, "elapsed_ms": elapsedMS}
	if res.truncated {
		trailer["truncated"] = true
	}
	if res.stats != nil {
		trailer["stats"] = res.stats
	}
	if res.explain != "" {
		trailer["explain"] = res.explain
	}
	if res.trace != nil {
		trailer["trace"] = res.trace
	}
	for _, v := range append(lines, trailer) {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// wireRelation holds tuples whose lines need escaping: quotes, < > &,
// control bytes, non-ASCII, and the tuple with neither binding nor
// constraint. It is normalised, as every result the encoder writes is.
func wireRelation() *relation.Relation {
	r := relation.New(schema.MustNew(schema.Rel("name", schema.String), schema.Con("x"), schema.Con("y")))
	for i, name := range []string{"ann", `<b>&"q"</b>`, "tab\there\x01", "ünï\u2028", "\xff\xfe"} {
		con := constraint.And(constraint.GeConst("x", rational.FromInt(int64(i))),
			constraint.LeConst("y", rational.New(7, 2))).Canon()
		r.MustAdd(relation.NewTuple(map[string]relation.Value{"name": relation.Str(name)}, con))
	}
	r.MustAdd(relation.ConstraintTuple(constraint.True()))
	return r.Normalize()
}

// TestReplyEncoding: appendReply and writeStream write the oracle's bytes
// for every shape of result — empty and non-empty tuples, truncation,
// each optional field present and absent — at elapsed values on both sides
// of encoding/json's exponent cutoffs.
func TestReplyEncoding(t *testing.T) {
	rel := wireRelation()
	rows := rel.Len()
	empty := relation.New(rel.Schema()).Normalize()
	stats := []exec.OpStats{
		{Op: "join", TuplesIn: 7, TuplesOut: 4, SatChecks: 4, PairsTotal: 12, PairsPruned: 8,
			EstPairs: 4, Wall: 1500 * time.Microsecond, Parallel: true},
		{Op: "select", TuplesIn: 4, TuplesOut: 4, EnvHits: 4},
	}
	explain := "query t <= 9 & x > 1  [query_id=q1]\n├─ \"scan\" \\ \x01\u2028\n"
	trace := json.RawMessage("[\n  {\n    \"name\": \"query\",\n    \"detail\": \"t <= 9 & x > 1\",\n    \"counters\": {\"rows\": 4}\n  }\n]")
	results := map[string]*queryResult{
		"empty tuples": {target: "R", rel: empty},
		"tuples":       {target: "R<1>&", rel: rel, rows: rows},
		"truncated":    {target: "R", rel: rel, rows: 2, truncated: true},
		"stats":        {target: "R", rel: rel, rows: rows, stats: stats},
		"empty stats":  {target: "R", rel: rel, rows: 1, stats: []exec.OpStats{}},
		"explain":      {target: "R", rel: rel, rows: rows, explain: explain},
		"trace":        {target: "R", rel: rel, rows: 3, truncated: true, trace: trace},
		"everything": {target: "\u2029", rel: rel, rows: rows, truncated: true,
			stats: stats, explain: explain, trace: trace},
	}
	for name, res := range results {
		for _, ms := range []float64{0, 1e-7, 0.123, 1e21, 12.5, 1e-6} {
			sid, qid := "s1-0000abcd", "q7-<&>"
			if got, want := appendReply([]byte("prefix"), sid, qid, res, ms), oracleReply(t, sid, qid, res, ms); !bytes.Equal(got[len("prefix"):], want) {
				t.Errorf("%s, elapsed %g: buffered reply differs\n--- got ---\n%s\n--- want ---\n%s", name, ms, got[len("prefix"):], want)
			}
			rec := httptest.NewRecorder()
			writeStream(rec, sid, qid, res, ms)
			if got, want := rec.Body.Bytes(), oracleStream(t, sid, qid, res, ms); !bytes.Equal(got, want) {
				t.Errorf("%s, elapsed %g: stream differs\n--- got ---\n%s\n--- want ---\n%s", name, ms, got, want)
			}
		}
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1e-7, 9.99e-7, 1e-6, 0.123, 1, 123456789, 1e20, 1e21, 1.5e300,
		-2.5e-8, -1e21, math.SmallestNonzeroFloat64, math.MaxFloat64} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("appendJSONFloat(%g) = %s, want %s", f, got, want)
		}
	}
}

// TestStreamChunks: a stream longer than streamChunk reaches the
// connection in several writes, each after a whole line, and is flushed
// once; the bytes are the oracle's.
func TestStreamChunks(t *testing.T) {
	rel := relation.New(schema.MustNew(schema.Con("x")))
	for i := 0; i < 2000; i++ {
		rel.MustAdd(relation.ConstraintTuple(constraint.And(constraint.GeConst("x", rational.FromInt(int64(i)))).Canon()))
	}
	rel = rel.Normalize()
	res := &queryResult{target: "R", rel: rel, rows: rel.Len()}
	w := &chunkRecorder{ResponseRecorder: httptest.NewRecorder()}
	writeStream(w, "s", "q", res, 1)
	if got, want := w.Body.Bytes(), oracleStream(t, "s", "q", res, 1); !bytes.Equal(got, want) {
		t.Fatal("a chunked stream's bytes differ from the oracle's")
	}
	if len(w.writes) < 2 || w.flushes != 1 {
		t.Fatalf("%d writes, %d flushes; want several writes and one flush", len(w.writes), w.flushes)
	}
	for _, n := range w.writes {
		if n > streamChunk+4<<10 {
			t.Errorf("a write of %d bytes: pieces must stay near %d", n, streamChunk)
		}
	}
}

type chunkRecorder struct {
	*httptest.ResponseRecorder
	writes  []int
	flushes int
}

func (c *chunkRecorder) Write(b []byte) (int, error) {
	if !bytes.HasSuffix(b, []byte("\n")) {
		return 0, fmt.Errorf("a write ends inside a line")
	}
	c.writes = append(c.writes, len(b))
	return c.ResponseRecorder.Write(b)
}

func (c *chunkRecorder) Flush() { c.flushes++ }

// FuzzReplyString: appendJSONString writes what json.Marshal writes for
// the same string, from either argument type — invalid UTF-8, U+2028,
// control bytes and HTML specials included.
func FuzzReplyString(f *testing.F) {
	for _, s := range []string{"", "(x <= 4)", `"\<>&`, "\b\f\n\r\t\x00\x1f\x7f", "\u2028\u2029", "\xff\xfe\xc3", "ü├\U0001F600"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, s []byte) {
		want, err := json.Marshal(string(s))
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONString(%q) = %s, want %s", s, got, want)
		}
		if got := appendJSONString([]byte("x"), string(s)); !bytes.Equal(got[1:], want) {
			t.Fatalf("appendJSONString(string %q) = %s, want %s", s, got[1:], want)
		}
	})
}

// TestReplyAllocs: the encoder's allocations do not grow with the number
// of rows it writes. Each request runs the same program on the same
// relation — evaluation, normalisation and ordering fixed — once writing
// every row and once with max_rows 1; the difference is what writing the
// other rows cost, and it must be no larger at 300 rows than at 10. Nor
// does the whole tail grow: a request for every row costs at most 16
// allocations more at 300 rows than at 10, so normalising, ordering and
// rendering the rows allocates per call, not per row.
func TestReplyAllocs(t *testing.T) {
	boxes := func(n int) *db.Database {
		r := relation.New(schema.MustNew(schema.Con("x"), schema.Con("y")))
		for i := 0; i < n; i++ {
			r.MustAdd(relation.ConstraintTuple(constraint.And(
				constraint.GeConst("x", rational.FromInt(int64(i))), constraint.LeConst("x", rational.FromInt(int64(i+1))),
				constraint.GeConst("y", rational.Zero), constraint.LeConst("y", rational.New(7, 2))).Canon()))
		}
		d := db.New()
		if err := d.Put("B", r); err != nil {
			t.Fatal(err)
		}
		return d
	}
	s := New(map[string]*db.Database{"small": boxes(10), "large": boxes(300)},
		Config{QueryHistory: 1, SessionIdleTimeout: -1})
	t.Cleanup(func() { _ = s.Shutdown(t.Context()) })
	session := func(name string) string {
		rec := httptest.NewRecorder()
		s.handleSessionCreate(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions",
			strings.NewReader(fmt.Sprintf(`{"db": %q, "par": 1}`, name))))
		var info sessionInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
			t.Fatal(err)
		}
		return info.ID
	}
	// AllocsPerRun counts every goroutine's allocations, and the server's
	// background goroutines only ever add to a request's: each quantity is
	// the least of several measurements.
	allocs := func(id string, stream bool, maxRows int) float64 {
		body := fmt.Sprintf(`{"session": %q, "query": "R = B", "stream": %t, "max_rows": %d}`, id, stream, maxRows)
		least := math.Inf(1)
		for range 5 {
			least = min(least, testing.AllocsPerRun(20, func() {
				rec := httptest.NewRecorder()
				rec.Body.Grow(64 << 10) // the recorder's growth is not the encoder's
				s.handleQuery(rec, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body)))
				if rec.Code != http.StatusOK {
					t.Fatalf("query: %d %s", rec.Code, rec.Body)
				}
			}))
		}
		return least
	}
	small, large := session("small"), session("large")
	for _, stream := range []bool{false, true} {
		all10, all300 := allocs(small, stream, 0), allocs(large, stream, 0)
		tail10 := all10 - allocs(small, stream, 1)
		tail300 := all300 - allocs(large, stream, 1)
		t.Logf("stream=%t: the other rows cost %.0f allocations at 10 rows, %.0f at 300", stream, tail10, tail300)
		// Two allocations of slack: the race detector drops pooled buffers
		// at random.
		if tail300 > tail10+2 {
			t.Errorf("stream=%t: writing 299 more rows costs %.0f allocations, 9 more %.0f: the encoder allocates per row",
				stream, tail300, tail10)
		}
		t.Logf("stream=%t: the request costs %.0f allocations at 10 rows, %.0f at 300", stream, all10, all300)
		if all300 > all10+16 {
			t.Errorf("stream=%t: the request costs %.0f allocations at 300 rows, %.0f at 10: the tail allocates per row",
				stream, all300, all10)
		}
	}
}
