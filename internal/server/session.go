package server

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cdb/internal/constraint"
	"cdb/internal/cqa"
	"cdb/internal/db"
	"cdb/internal/exec"
	"cdb/internal/obs"
	"cdb/internal/relation"
)

// session is one client's stateful connection to the server: an owned
// *exec.Context (its own worker-pool size and — per query — tracer and
// deadline, pointed at the server's one sat-cache) plus the session-local
// result bindings, layered over one shared read-only database from the
// registry.
//
// Queries on a session are serialised by mu, exactly like statements in
// one REPL: concurrency happens *across* sessions, which is what keeps
// the per-session exec.Context's policy-swap-per-query (Ctx, Tracer)
// sound without making every field atomic. The shared base database is
// never written; session results live only in the overlay.
type session struct {
	id     string
	dbName string
	snapID string // snapshot the session is bound to ("" for registry dbs)
	base   *db.Database
	ec     *exec.Context

	mu      sync.Mutex // serialises query execution and overlay access
	results map[string]*relation.Relation
	order   []string
	env     cqa.Env // results layered over base: what a query reads (mu held)

	created  time.Time
	lastUsed atomic.Int64 // unix nanos of the last query start/finish
	queries  atomic.Int64 // completed queries
	running  atomic.Int32 // queries currently executing (0 or 1)
}

// sessionOptions are the per-session execution knobs, all optional.
// A pointer distinguishes "unset, use the server default" from an
// explicit zero.
type sessionOptions struct {
	DB       string `json:"db,omitempty"`
	Snapshot string `json:"snapshot,omitempty"` // bind to a snapshot instead of a db
	Par      *int   `json:"par,omitempty"`
}

// newSession builds a session against base with opts layered over the
// server defaults. Its decisions go through cache, the server's one
// sat-cache (nil: none), and its operators fold their records into reg,
// the registry /metrics serves (the cdb_op_* families).
func newSession(id, dbName string, base *db.Database, opts sessionOptions, cfg Config, cache *constraint.SatCache, reg *obs.Registry) *session {
	ec := exec.New(orDefault(opts.Par, cfg.DefaultPar))
	ec.Metrics = reg
	ec.SatCache = cache
	results := map[string]*relation.Relation{}
	s := &session{
		id:      id,
		dbName:  dbName,
		snapID:  opts.Snapshot,
		base:    base,
		ec:      ec,
		results: results,
		env:     base.Env().With(results),
		created: time.Now(),
	}
	s.touch()
	return s
}

func orDefault(p *int, def int) int {
	if p != nil {
		return *p
	}
	return def
}

// bind persists a statement result into the session overlay (mu held).
func (s *session) bind(name string, r *relation.Relation) {
	if _, exists := s.results[name]; !exists {
		s.order = append(s.order, name)
	}
	s.results[name] = r
}

// touch stamps the idle clock.
func (s *session) touch() { s.lastUsed.Store(time.Now().UnixNano()) }

// idleFor returns how long the session has been idle.
func (s *session) idleFor(now time.Time) time.Duration {
	return now.Sub(time.Unix(0, s.lastUsed.Load()))
}

// newSessionID returns "s<seq>-<8 hex>": the sequence keeps ids readable
// and log-sortable, the random suffix keeps them unguessable across
// restarts.
func newSessionID(seq int64) string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to the
		// sequence alone rather than refusing sessions.
		return fmt.Sprintf("s%d", seq)
	}
	return fmt.Sprintf("s%d-%s", seq, hex.EncodeToString(b[:]))
}
