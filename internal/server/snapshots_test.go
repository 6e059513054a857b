package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"cdb/internal/db"
	"cdb/internal/hurricane"
	"cdb/internal/snapshot"
)

func TestSnapshotEndpointsUnconfigured(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	status, body, _ := postJSON(t, ts.URL+"/v1/dbs/hurricane/snapshots", "")
	if status != http.StatusNotImplemented {
		t.Fatalf("commit without store: %d %s", status, body)
	}
	if !bytes.Contains(body, []byte("-snapshot-dir")) {
		t.Fatalf("501 does not say how to enable snapshots: %s", body)
	}
	status, body = getJSON(t, ts.URL+"/v1/snapshots")
	if status != http.StatusNotImplemented {
		t.Fatalf("list without store: %d %s", status, body)
	}
	// Binding a session to a snapshot must fail the same way.
	status, body, _ = postJSON(t, ts.URL+"/v1/sessions", `{"snapshot": "snap1-00000000"}`)
	if status != http.StatusNotImplemented {
		t.Fatalf("snapshot session without store: %d %s", status, body)
	}
}

func TestSnapshotLifecycleOverHTTP(t *testing.T) {
	dir := t.TempDir()
	st, err := snapshot.Open(dir, snapshot.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, ts := newTestServer(t, Config{Snapshots: st}, nil)

	// Commit the registry database.
	status, body, _ := postJSON(t, ts.URL+"/v1/dbs/hurricane/snapshots", "")
	if status != http.StatusCreated {
		t.Fatalf("commit: %d %s", status, body)
	}
	var base snapshot.Snapshot
	if err := json.Unmarshal(body, &base); err != nil {
		t.Fatal(err)
	}
	if base.ID == "" || base.Pages == 0 || base.DB != "hurricane" {
		t.Fatalf("commit metadata: %+v", base)
	}

	// Unknown database 404s.
	status, body, _ = postJSON(t, ts.URL+"/v1/dbs/nope/snapshots", "")
	if status != http.StatusNotFound {
		t.Fatalf("commit of unknown db: %d %s", status, body)
	}

	// Fork is O(1) sharing.
	status, body, _ = postJSON(t, ts.URL+"/v1/snapshots/"+base.ID+"/fork", "")
	if status != http.StatusCreated {
		t.Fatalf("fork: %d %s", status, body)
	}
	var fork snapshot.Snapshot
	if err := json.Unmarshal(body, &fork); err != nil {
		t.Fatal(err)
	}
	if fork.Parent != base.ID || fork.NewPages != 0 || fork.SharedPages != base.Pages {
		t.Fatalf("fork metadata: %+v", fork)
	}

	// List shows both in commit order; Get finds each.
	status, body = getJSON(t, ts.URL+"/v1/snapshots")
	if status != http.StatusOK {
		t.Fatalf("list: %d %s", status, body)
	}
	var listing struct {
		Snapshots []snapshot.Snapshot `json:"snapshots"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Snapshots) != 2 || listing.Snapshots[0].ID != base.ID || listing.Snapshots[1].ID != fork.ID {
		t.Fatalf("listing: %+v", listing)
	}
	status, body = getJSON(t, ts.URL+"/v1/snapshots/"+fork.ID)
	if status != http.StatusOK {
		t.Fatalf("get: %d %s", status, body)
	}
	status, body = getJSON(t, ts.URL+"/v1/snapshots/snap999-00000000")
	if status != http.StatusNotFound {
		t.Fatalf("get of unknown snapshot: %d %s", status, body)
	}

	// A session bound to the fork answers queries byte-identically to a
	// session over a full Save/Load copy of the same state.
	snapSess := openSession(t, ts, fmt.Sprintf(`{"snapshot": %q, "par": 1}`, fork.ID))
	full := loadedHurricane(t)
	s2, ts2 := newTestServer(t, Config{}, map[string]*db.Database{"full": full})
	_ = s2
	fullSess := openSession(t, ts2, `{"db": "full", "par": 1}`)

	const program = `{"session": %q, "query": "R0 = join Landownership and Land\nR1 = select t >= 4, t <= 9 from R0\nR2 = project R1 on name"}`
	status, snapResp, body := runQueryReq(t, ts, fmt.Sprintf(program, snapSess))
	if status != http.StatusOK {
		t.Fatalf("query on snapshot session: %d %s", status, body)
	}
	status, fullResp, body := runQueryReq(t, ts2, fmt.Sprintf(program, fullSess))
	if status != http.StatusOK {
		t.Fatalf("query on full-copy session: %d %s", status, body)
	}
	if snapResp.Schema != fullResp.Schema || !reflect.DeepEqual(snapResp.Tuples, fullResp.Tuples) {
		t.Fatalf("fork-bound session diverged from full copy:\nfork: %s %v\nfull: %s %v",
			snapResp.Schema, snapResp.Tuples, fullResp.Schema, fullResp.Tuples)
	}

	// Session info exposes the binding.
	status, body = getJSON(t, ts.URL+"/v1/sessions/"+snapSess)
	if status != http.StatusOK || !bytes.Contains(body, []byte(fork.ID)) {
		t.Fatalf("session info lacks snapshot binding: %d %s", status, body)
	}

	// Committing the session state (base + R0..R2 results) snapshots the
	// branch: the parent is the fork, and only changed pages are new.
	status, body, _ = postJSON(t, ts.URL+"/v1/sessions/"+snapSess+"/snapshot", "")
	if status != http.StatusCreated {
		t.Fatalf("session snapshot: %d %s", status, body)
	}
	var branch snapshot.Snapshot
	if err := json.Unmarshal(body, &branch); err != nil {
		t.Fatal(err)
	}
	if branch.Parent != fork.ID {
		t.Fatalf("session snapshot parent = %q, want %q", branch.Parent, fork.ID)
	}
	if branch.SharedPages == 0 {
		t.Fatalf("session snapshot shared nothing: %+v", branch)
	}
	// The branch materializes with the session's result bindings.
	got, err := st.Materialize(branch.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"Land", "R0", "R1", "R2"} {
		if _, ok := got.Get(rel); !ok {
			t.Fatalf("branch snapshot is missing relation %s", rel)
		}
	}

	// A session bound to the branch sees the persisted results.
	branchSess := openSession(t, ts, fmt.Sprintf(`{"snapshot": %q, "par": 1}`, branch.ID))
	status, resp, body := runQueryReq(t, ts, fmt.Sprintf(`{"session": %q, "query": "R3 = project R2 on name"}`, branchSess))
	if status != http.StatusOK {
		t.Fatalf("query over branch: %d %s", status, body)
	}
	if len(resp.Tuples) == 0 {
		t.Fatalf("persisted result relation came back empty")
	}

	// Release the base; the fork keeps its pages.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/snapshots/"+base.ID, nil)
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("release: %d", res.StatusCode)
	}
	if _, err := st.Materialize(fork.ID); err != nil {
		t.Fatalf("fork unreadable after parent release: %v", err)
	}
	// Releasing again 404s.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/snapshots/"+base.ID, nil)
	res, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("double release: %d", res.StatusCode)
	}

	// db and snapshot are mutually exclusive.
	status, body, _ = postJSON(t, ts.URL+"/v1/sessions",
		fmt.Sprintf(`{"db": "hurricane", "snapshot": %q}`, fork.ID))
	if status != http.StatusBadRequest {
		t.Fatalf("db+snapshot session: %d %s", status, body)
	}
	// Unknown snapshot binding 404s.
	status, body, _ = postJSON(t, ts.URL+"/v1/sessions", `{"snapshot": "snap999-00000000"}`)
	if status != http.StatusNotFound {
		t.Fatalf("unknown snapshot session: %d %s", status, body)
	}
}

// snapshotIDRe normalises snapshot ids in golden files the way session
// and query ids already are.
var snapshotIDRe = regexp.MustCompile(`"snap[0-9]+-[0-9a-f]{8}"`)

var createdRe = regexp.MustCompile(`"created_unix_ms": [0-9]+`)

func normalizeSnapshot(body []byte) string {
	out := snapshotIDRe.ReplaceAll(body, []byte(`"SNAPSHOT"`))
	out = createdRe.ReplaceAll(out, []byte(`"created_unix_ms": 0`))
	return normalize(out)
}

// TestGoldenSnapshotWireShape pins the JSON shape of the snapshot
// endpoints: the commit response, the fork response, and the listing.
// Regenerate with:
//
//	go test ./internal/server -run TestGoldenSnapshotWireShape -update
func TestGoldenSnapshotWireShape(t *testing.T) {
	dir := t.TempDir()
	st, err := snapshot.Open(dir, snapshot.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, ts := newTestServer(t, Config{Snapshots: st}, nil)

	_, commitBody, _ := postJSON(t, ts.URL+"/v1/dbs/hurricane/snapshots", "")
	var base snapshot.Snapshot
	if err := json.Unmarshal(commitBody, &base); err != nil {
		t.Fatal(err)
	}
	_, forkBody, _ := postJSON(t, ts.URL+"/v1/snapshots/"+base.ID+"/fork", "")
	_, listBody := getJSON(t, ts.URL+"/v1/snapshots")

	got := "== POST /v1/dbs/{name}/snapshots ==\n" + normalizeSnapshot(commitBody) +
		"== POST /v1/snapshots/{id}/fork ==\n" + normalizeSnapshot(forkBody) +
		"== GET /v1/snapshots ==\n" + normalizeSnapshot(listBody)

	path := filepath.Join("testdata", "snapshots.golden.json")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("snapshot wire shape differs from %s (re-run with -update if intended):\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// loadedHurricane is the demo database as a daemon holds one it loaded
// with -db: every tuple canonical.
func loadedHurricane(t *testing.T) *db.Database {
	t.Helper()
	var buf bytes.Buffer
	if err := hurricane.Build().Save(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := db.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSnapshotSessionSharedAndDecodedAgree: a session bound to a fork
// answers the golden program with the same bytes, operator stats included,
// and the store lists the same snapshots, whether the fork's database was
// shared with the one that was committed (nothing decoded) or decoded from
// the pages by a store that was reopened and remembers nothing; and the two
// databases are equal tuple for tuple, in order, canonical flags,
// fingerprints and saved bytes.
func TestSnapshotSessionSharedAndDecodedAgree(t *testing.T) {
	dir := t.TempDir()
	const program = `{"session": %q, "query": "R0 = join Landownership and Land\nR1 = select t >= 4, t <= 9 from R0\nR2 = project R1 on name", "stats": true}`
	var forkID string
	run := func(shared bool) (answer, listing string, mat *db.Database) {
		st, err := snapshot.Open(dir, snapshot.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		_, ts := newTestServer(t, Config{Snapshots: st}, map[string]*db.Database{"loaded": loadedHurricane(t)})
		defer ts.Close()
		if shared {
			_, body, _ := postJSON(t, ts.URL+"/v1/dbs/loaded/snapshots", "")
			var base snapshot.Snapshot
			if err := json.Unmarshal(body, &base); err != nil {
				t.Fatal(err)
			}
			_, body, _ = postJSON(t, ts.URL+"/v1/snapshots/"+base.ID+"/fork", "")
			var fork snapshot.Snapshot
			if err := json.Unmarshal(body, &fork); err != nil {
				t.Fatal(err)
			}
			forkID = fork.ID
		}
		sess := openSession(t, ts, fmt.Sprintf(`{"snapshot": %q, "par": 1}`, forkID))
		if stats := st.Stats(); (stats.RelationsShared > 0) != shared || (stats.RelationsDecoded > 0) == shared {
			t.Fatalf("shared=%v: the session open decoded %d relations and shared %d", shared, stats.RelationsDecoded, stats.RelationsShared)
		}
		status, _, body := runQueryReq(t, ts, fmt.Sprintf(program, sess))
		if status != http.StatusOK {
			t.Fatalf("shared=%v: query: %d %s", shared, status, body)
		}
		_, list := getJSON(t, ts.URL+"/v1/snapshots")
		if mat, err = st.Materialize(forkID); err != nil {
			t.Fatal(err)
		}
		return normalize(body), normalizeSnapshot(list), mat
	}
	sharedAnswer, sharedList, sharedDB := run(true)
	decodedAnswer, decodedList, decodedDB := run(false)
	if sharedAnswer != decodedAnswer {
		t.Errorf("the answer over a shared database differs from the one over a decoded database:\n--- shared ---\n%s\n--- decoded ---\n%s", sharedAnswer, decodedAnswer)
	}
	if sharedList != decodedList {
		t.Errorf("the listing changed across the reopen:\n--- before ---\n%s\n--- after ---\n%s", sharedList, decodedList)
	}
	if fmt.Sprint(sharedDB.Names()) != fmt.Sprint(decodedDB.Names()) {
		t.Fatalf("relations %v shared, %v decoded", sharedDB.Names(), decodedDB.Names())
	}
	var a, b bytes.Buffer
	if sharedDB.Save(&a); decodedDB.Save(&b) != nil || a.String() != b.String() {
		t.Error("the shared and the decoded database save to different bytes")
	}
	for _, name := range sharedDB.Names() {
		ra, _ := sharedDB.Get(name)
		rb, _ := decodedDB.Get(name)
		if !ra.Schema().Equal(rb.Schema()) || ra.Len() != rb.Len() {
			t.Fatalf("%s: %s with %d tuples shared, %s with %d decoded", name, ra.Schema(), ra.Len(), rb.Schema(), rb.Len())
		}
		for i, ta := range ra.Tuples() {
			tb := rb.Tuples()[i]
			ca, cb := ta.Constraint(), tb.Constraint()
			if !ta.SameRelationalPart(tb) || !ca.IsCanonical() || !cb.IsCanonical() || !ca.EqualCanonical(cb) || ca.Fingerprint() != cb.Fingerprint() {
				t.Fatalf("%s: tuple %d is %s shared and %s decoded", name, i, ta, tb)
			}
		}
	}
}

// TestReleaseOvertakesSessionOpen: a snapshot released while a session
// open is materialising it leaves nothing behind — the database is not
// kept for an id no DELETE can reach any more — the session that lost the
// race works on its own copy, and the next open answers 404.
func TestReleaseOvertakesSessionOpen(t *testing.T) {
	st, err := snapshot.Open(t.TempDir(), snapshot.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s, ts := newTestServer(t, Config{Snapshots: st}, nil)
	_, body, _ := postJSON(t, ts.URL+"/v1/dbs/hurricane/snapshots", "")
	var snap snapshot.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	materialized, released := make(chan struct{}), make(chan struct{})
	s.hookMaterialized = func() {
		close(materialized)
		<-released
	}
	opened := make(chan string)
	go func() {
		status, body, _ := postJSON(t, ts.URL+"/v1/sessions", fmt.Sprintf(`{"snapshot": %q, "par": 1}`, snap.ID))
		if status != http.StatusCreated {
			t.Errorf("the open that lost the race: %d %s", status, body)
		}
		var info sessionInfo
		json.Unmarshal(body, &info)
		opened <- info.ID
	}()
	<-materialized
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/snapshots/"+snap.ID, nil)
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("release: %d", res.StatusCode)
	}
	close(released)
	sess := <-opened
	s.hookMaterialized = nil

	s.smu.Lock()
	kept := len(s.snapDBs)
	s.smu.Unlock()
	if kept != 0 {
		t.Fatalf("%d materialised databases kept for a store with no snapshot", kept)
	}
	status, resp, body := runQueryReq(t, ts, fmt.Sprintf(`{"session": %q, "query": "R0 = join Landownership and Land"}`, sess))
	if status != http.StatusOK || len(resp.Tuples) == 0 {
		t.Fatalf("the session that lost the race cannot query its copy: %d %s", status, body)
	}
	if status, body, _ := postJSON(t, ts.URL+"/v1/sessions", fmt.Sprintf(`{"snapshot": %q}`, snap.ID)); status != http.StatusNotFound {
		t.Fatalf("an open on the released snapshot: %d %s", status, body)
	}
}
