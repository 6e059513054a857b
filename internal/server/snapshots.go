package server

import (
	"fmt"
	"net/http"
	"sort"

	"cdb/internal/db"
	"cdb/internal/snapshot"
)

// Snapshot endpoints. When the server is started with a snapshot store
// (-snapshot-dir), database states become durable, branchable values:
//
//	POST   /v1/dbs/{name}/snapshots    commit a registry database
//	POST   /v1/sessions/{id}/snapshot  commit a session's state (base + results)
//	GET    /v1/snapshots               list snapshots, commit order
//	GET    /v1/snapshots/{id}          one snapshot's metadata
//	POST   /v1/snapshots/{id}/fork     O(1) copy-on-write branch
//	DELETE /v1/snapshots/{id}          release (refcounted page reclaim)
//
// and sessions can bind to a snapshot instead of a registry database by
// passing {"snapshot": "<id>"} to POST /v1/sessions. Without a store the
// routes answer 501 so clients get a diagnosis, not a 404.

func (s *Server) snapshotRoutes() {
	s.handle("POST /v1/dbs/{name}/snapshots", s.handleSnapshotCommit)
	s.handle("POST /v1/sessions/{id}/snapshot", s.handleSessionSnapshot)
	s.handle("GET /v1/snapshots", s.handleSnapshotList)
	s.handle("GET /v1/snapshots/{id}", s.handleSnapshotGet)
	s.handle("POST /v1/snapshots/{id}/fork", s.handleSnapshotFork)
	s.handle("DELETE /v1/snapshots/{id}", s.handleSnapshotRelease)
}

// store returns the snapshot store, or writes the 501 that explains how
// to get one.
func (s *Server) store(w http.ResponseWriter) *snapshot.Store {
	if s.snaps == nil {
		writeError(w, http.StatusNotImplemented,
			"snapshot store not configured (start the server with -snapshot-dir)")
		return nil
	}
	return s.snaps
}

func (s *Server) handleSnapshotCommit(w http.ResponseWriter, r *http.Request) {
	st := s.store(w)
	if st == nil {
		return
	}
	name := r.PathValue("name")
	base, ok := s.dbs[name]
	if !ok {
		writeError(w, http.StatusNotFound,
			fmt.Sprintf("unknown database %q (registry holds %s)", name, quoteNames(s.dbOrder)))
		return
	}
	snap, err := st.Commit(base, "", name)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.log.Info("snapshot committed", "snapshot", snap.ID, "db", name,
		"pages", snap.Pages, "new_pages", snap.NewPages)
	writeJSON(w, http.StatusCreated, snap)
}

// handleSessionSnapshot commits a session's current state — the shared
// base plus its result overlay — as a durable snapshot. The parent is
// the snapshot the session was forked from, when there is one, so
// lineage follows the session graph.
func (s *Server) handleSessionSnapshot(w http.ResponseWriter, r *http.Request) {
	st := s.store(w)
	if st == nil {
		return
	}
	sess, ok := s.session(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	// Freeze the session's visible state under its query mutex, exactly
	// what a query running now would see.
	sess.mu.Lock()
	state := db.New()
	var err error
	for _, name := range sess.base.Names() {
		rel, _ := sess.base.Get(name)
		if err = state.Put(name, rel); err != nil {
			break
		}
	}
	if err == nil {
		for _, name := range sess.order {
			if err = state.Put(name, sess.results[name]); err != nil {
				break
			}
		}
	}
	sess.mu.Unlock()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	snap, err := st.Commit(state, sess.snapID, sess.dbName)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	sess.touch()
	s.log.Info("session snapshot committed", "session", sess.id,
		"snapshot", snap.ID, "parent", snap.Parent, "new_pages", snap.NewPages)
	writeJSON(w, http.StatusCreated, snap)
}

func (s *Server) handleSnapshotList(w http.ResponseWriter, r *http.Request) {
	st := s.store(w)
	if st == nil {
		return
	}
	list := st.List()
	stats := st.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"snapshots":  list,
		"pages_live": stats.PagesLive,
		"pages_free": stats.PagesFree,
		"page_size":  stats.PageSize,
	})
}

func (s *Server) handleSnapshotGet(w http.ResponseWriter, r *http.Request) {
	st := s.store(w)
	if st == nil {
		return
	}
	snap, ok := st.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such snapshot")
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleSnapshotFork(w http.ResponseWriter, r *http.Request) {
	st := s.store(w)
	if st == nil {
		return
	}
	id := r.PathValue("id")
	snap, err := st.Fork(id)
	if err != nil {
		if _, exists := st.Get(id); !exists {
			writeError(w, http.StatusNotFound, "no such snapshot")
			return
		}
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.log.Info("snapshot forked", "snapshot", snap.ID, "parent", snap.Parent)
	writeJSON(w, http.StatusCreated, snap)
}

func (s *Server) handleSnapshotRelease(w http.ResponseWriter, r *http.Request) {
	st := s.store(w)
	if st == nil {
		return
	}
	id := r.PathValue("id")
	if _, exists := st.Get(id); !exists {
		writeError(w, http.StatusNotFound, "no such snapshot")
		return
	}
	if err := st.Release(id); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	// Drop the materialized cache entry; sessions already bound keep
	// their in-memory database (a session outliving its snapshot is
	// fine — the pages it read are its own copy).
	s.smu.Lock()
	delete(s.snapDBs, id)
	s.smu.Unlock()
	s.log.Info("snapshot released", "snapshot", id)
	writeJSON(w, http.StatusOK, map[string]any{"released": id})
}

// snapshotDB materializes a snapshot into a database, memoized per id:
// every session bound to the same snapshot shares one in-memory copy,
// the same way registry sessions share their base. Only a live snapshot's
// copy is kept: when a release overtook the materialisation, its delete has
// or will have found nothing, no later one can come (the id answers 404),
// and an entry stored now would stay until restart — the caller's session
// keeps the copy to itself instead.
func (s *Server) snapshotDB(id string) (*db.Database, error) {
	s.smu.Lock()
	if d, ok := s.snapDBs[id]; ok {
		s.smu.Unlock()
		return d, nil
	}
	s.smu.Unlock()
	// Materialize outside smu: page reads and decoding can be slow.
	d, err := s.snaps.Materialize(id)
	if err != nil {
		return nil, err
	}
	if s.hookMaterialized != nil {
		s.hookMaterialized()
	}
	s.smu.Lock()
	defer s.smu.Unlock()
	if cached, ok := s.snapDBs[id]; ok {
		return cached, nil
	}
	// Asked under smu, which the release takes after the store has let the
	// snapshot go: a yes here means its delete is still to come.
	if _, live := s.snaps.Get(id); live {
		s.snapDBs[id] = d
	}
	return d, nil
}

// snapshotNames lists live snapshot ids for error messages.
func (s *Server) snapshotNames() []string {
	list := s.snaps.List()
	out := make([]string, len(list))
	for i, snap := range list {
		out[i] = snap.ID
	}
	sort.Strings(out)
	return out
}
