package snapshot

import (
	"errors"
	"fmt"
	"testing"

	"cdb/internal/db"
)

// The crash-consistency suite. Every test follows the same shape: run a
// commit workload with a fault armed at one exact storage operation, let
// the injected failure "crash" the store, then reopen the directory and
// assert the recovered state is exactly the last durable snapshot set —
// never a mix of old and new, never a corrupt manifest. The fault points
// sweep every page write and every WAL append the workload performs, so
// each byte-offset of the commit protocol gets its own crash — once with the
// two databases carrying their stored forms (a commit that reuses a form must
// still perform, and fail at, every write) and once made to forget them.

type crashWorkload struct {
	base    *db.Database
	derived *db.Database

	baseText    string
	derivedText string

	// Operation counts measured by a fault-free dry run.
	basePageWrites int64
	baseAppends    int64
	totalWrites    int64
	totalAppends   int64
}

func newCrashWorkload(t *testing.T) *crashWorkload {
	t.Helper()
	w := &crashWorkload{}
	w.base = buildDB(t, map[string]int{"Land": 30, "Owner": 16}, "")
	w.derived = buildDB(t, map[string]int{"Land": 30, "Owner": 16}, "Owner",
		`tuple id="zzzz" | x >= 50, x <= 53, y >= 0, y <= 5`)
	w.baseText = saveText(t, w.base)
	w.derivedText = saveText(t, w.derived)

	// Dry run: count the storage ops each commit performs.
	dir := t.TempDir()
	s := openStore(t, dir, nil)
	defer s.Close()
	if _, err := s.Commit(w.base, "", "crash"); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	w.basePageWrites, w.baseAppends = st.PagesWritten, st.WALAppends
	snaps := s.List()
	if _, err := s.Commit(w.derived, snaps[0].ID, "crash"); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	w.totalWrites, w.totalAppends = st.PagesWritten, st.WALAppends
	if w.totalWrites <= w.basePageWrites || w.totalAppends <= w.baseAppends {
		t.Fatalf("derived commit performed no new ops: %+v", w)
	}
	return w
}

// formModes names the two states the sweeps commit the workload's databases
// in: carrying their stored forms, and made to forget them.
var formModes = []struct {
	name   string
	forced bool
}{{"carried", false}, {"encoded", true}}

// run commits base then derived with the given fault armed. Whatever an
// earlier run left on them, every relation of the two carries its stored
// form when the first commit starts, or — forced — none does. It returns
// the base snapshot id and whether each commit succeeded.
func (w *crashWorkload) run(t *testing.T, dir string, fault *Fault, forced bool) (baseID string, baseOK, derivedOK bool) {
	t.Helper()
	s := openStore(t, dir, fault)
	if forced {
		forget(s, w.base, w.derived)
	} else {
		for _, d := range []*db.Database{w.base, w.derived} {
			if _, _, err := encodePages(d, s.pager.PageSize()); err != nil {
				t.Fatal(err)
			}
		}
	}
	s0 := s.Stats()
	defer func() {
		if s1 := s.Stats(); forced && s1.RelationsReused != s0.RelationsReused || !forced && s1.RelationsEncoded != s0.RelationsEncoded {
			t.Errorf("forced=%v: the commits encoded %d relations and reused the forms of %d", forced,
				s1.RelationsEncoded-s0.RelationsEncoded, s1.RelationsReused-s0.RelationsReused)
		}
	}()
	// The injected fault is the crash: close without error checking, the
	// way a dying process would.
	defer s.Close()
	b, err := s.Commit(w.base, "", "crash")
	if err != nil {
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("base commit failed with a non-injected error: %v", err)
		}
		return "", false, false
	}
	if _, err := s.Commit(w.derived, b.ID, "crash"); err != nil {
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("derived commit failed with a non-injected error: %v", err)
		}
		return b.ID, true, false
	}
	return b.ID, true, true
}

// verifyRecovered reopens dir twice (recovery must be idempotent — a
// crash during recovery is just another crash) and asserts the store
// serves exactly the snapshots that were durably committed.
func (w *crashWorkload) verifyRecovered(t *testing.T, dir string, baseOK, derivedOK bool) {
	t.Helper()
	for pass := 0; pass < 2; pass++ {
		s := openStore(t, dir, nil)
		list := s.List()
		wantLen := 0
		if baseOK {
			wantLen++
		}
		if derivedOK {
			wantLen++
		}
		if len(list) != wantLen {
			t.Fatalf("pass %d: recovered %d snapshots, want %d (%+v)", pass, len(list), wantLen, list)
		}
		if baseOK {
			got, err := s.MaterializeCtx(list[0].ID, nil)
			if err != nil {
				t.Fatalf("pass %d: materialize base: %v", pass, err)
			}
			if saveText(t, got) != w.baseText {
				t.Fatalf("pass %d: recovered base state is a mix", pass)
			}
		}
		if derivedOK {
			got, err := s.MaterializeCtx(list[1].ID, nil)
			if err != nil {
				t.Fatalf("pass %d: materialize derived: %v", pass, err)
			}
			if saveText(t, got) != w.derivedText {
				t.Fatalf("pass %d: recovered derived state is a mix", pass)
			}
		}
		// The recovered store must accept new work: re-commit the derived
		// state (on the last pass only, so both passes see the same set).
		if pass == 1 {
			parent := ""
			if baseOK {
				parent = list[0].ID
			}
			snap, err := s.Commit(w.derived, parent, "crash")
			if err != nil {
				t.Fatalf("post-recovery commit: %v", err)
			}
			got, err := s.MaterializeCtx(snap.ID, nil)
			if err != nil {
				t.Fatal(err)
			}
			if saveText(t, got) != w.derivedText {
				t.Fatalf("post-recovery commit materializes wrong state")
			}
		}
		if err := s.Close(); err != nil {
			t.Fatalf("pass %d: close: %v", pass, err)
		}
	}
}

// TestCrashAtEveryPageWrite sweeps a fault across every page write the
// two-commit workload performs, torn and clean.
func TestCrashAtEveryPageWrite(t *testing.T) {
	w := newCrashWorkload(t)
	for _, torn := range []bool{false, true} {
		for n := int64(1); n <= w.totalWrites; n++ {
			name := fmt.Sprintf("write%d_torn=%v", n, torn)
			t.Run(name, func(t *testing.T) {
				for _, mode := range formModes {
					t.Run(mode.name, func(t *testing.T) {
						dir := t.TempDir()
						_, baseOK, derivedOK := w.run(t, dir, &Fault{PageWriteN: int(n), Torn: torn}, mode.forced)
						if derivedOK {
							t.Fatalf("fault at write %d never fired", n)
						}
						if wantBase := n > w.basePageWrites; baseOK != wantBase {
							t.Fatalf("fault at write %d: baseOK=%v, want %v", n, baseOK, wantBase)
						}
						w.verifyRecovered(t, dir, baseOK, false)
					})
				}
			})
		}
	}
}

// TestCrashAtEveryWALAppend sweeps a fault across every WAL record
// append, torn and clean. Torn appends leave a half-written frame on
// disk; recovery must truncate it and keep everything before it.
func TestCrashAtEveryWALAppend(t *testing.T) {
	w := newCrashWorkload(t)
	for _, torn := range []bool{false, true} {
		for n := int64(1); n <= w.totalAppends; n++ {
			name := fmt.Sprintf("append%d_torn=%v", n, torn)
			t.Run(name, func(t *testing.T) {
				for _, mode := range formModes {
					t.Run(mode.name, func(t *testing.T) {
						dir := t.TempDir()
						_, baseOK, derivedOK := w.run(t, dir, &Fault{WALAppendN: int(n), Torn: torn}, mode.forced)
						if derivedOK {
							t.Fatalf("fault at append %d never fired", n)
						}
						if wantBase := n > w.baseAppends; baseOK != wantBase {
							t.Fatalf("fault at append %d: baseOK=%v, want %v", n, baseOK, wantBase)
						}
						w.verifyRecovered(t, dir, baseOK, false)
					})
				}
			})
		}
	}
}

// TestCrashPastTheWorkload arms the fault beyond every op the workload
// performs: nothing fires, both commits land, and recovery sees both.
func TestCrashPastTheWorkload(t *testing.T) {
	w := newCrashWorkload(t)
	for _, mode := range formModes {
		dir := t.TempDir()
		_, baseOK, derivedOK := w.run(t, dir, &Fault{PageWriteN: int(w.totalWrites) + 100, WALAppendN: int(w.totalAppends) + 100}, mode.forced)
		if !baseOK || !derivedOK {
			t.Fatalf("unfired fault failed a commit")
		}
		w.verifyRecovered(t, dir, true, true)
	}
}

// TestCrashDuringFork arms the fault at the fork's WAL append: the fork
// must vanish on recovery while its parent stays intact.
func TestCrashDuringFork(t *testing.T) {
	w := newCrashWorkload(t)
	for _, torn := range []bool{false, true} {
		t.Run(fmt.Sprintf("torn=%v", torn), func(t *testing.T) {
			dir := t.TempDir()
			fault := &Fault{WALAppendN: int(w.baseAppends) + 1, Torn: torn}
			s := openStore(t, dir, fault)
			b, err := s.Commit(w.base, "", "crash")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Fork(b.ID); !errors.Is(err, ErrInjected) {
				t.Fatalf("fork error = %v, want injected", err)
			}
			s.Close()
			w.verifyRecovered(t, dir, true, false)
		})
	}
}

// TestCrashDuringRelease arms the fault at the release's WAL append: the
// snapshot must survive recovery (the release never became durable).
func TestCrashDuringRelease(t *testing.T) {
	w := newCrashWorkload(t)
	for _, torn := range []bool{false, true} {
		t.Run(fmt.Sprintf("torn=%v", torn), func(t *testing.T) {
			dir := t.TempDir()
			fault := &Fault{WALAppendN: int(w.baseAppends) + 1, Torn: torn}
			s := openStore(t, dir, fault)
			b, err := s.Commit(w.base, "", "crash")
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Release(b.ID); !errors.Is(err, ErrInjected) {
				t.Fatalf("release error = %v, want injected", err)
			}
			s.Close()
			w.verifyRecovered(t, dir, true, false)
		})
	}
}
