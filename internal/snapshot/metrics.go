package snapshot

import "cdb/internal/obs"

// InstallMetrics registers the store's metric families on reg: the
// page-share counters that tell you whether copy-on-write is actually
// sharing (pages written vs references resolved by dedup), the WAL
// append/fsync/byte counters that bound commit durability cost, and the
// live/free page gauges, and the two decisions a stored form settles — a
// commit encodes a relation or reuses the form it carries, a materialise
// decodes one or shares what a database in memory still holds. All families read the same counters Stats()
// reports, so /metrics and the API agree.
func (s *Store) InstallMetrics(reg *obs.Registry) {
	reg.NewCounterFunc("cdb_snapshot_commits_total",
		"Snapshot commits (durable WAL commit records written).",
		func() int64 { return s.Stats().Commits })
	reg.NewCounterFunc("cdb_snapshot_forks_total",
		"Snapshot forks (manifest copies; no page I/O).",
		func() int64 { return s.Stats().Forks })
	reg.NewCounterFunc("cdb_snapshot_releases_total",
		"Snapshots released (pages reclaimed by refcount).",
		func() int64 { return s.Stats().Releases })
	reg.NewCounterFunc("cdb_snapshot_pages_written_total",
		"Content pages physically written by commits.",
		func() int64 { return s.Stats().PagesWritten })
	reg.NewCounterFunc("cdb_snapshot_pages_shared_total",
		"Page references resolved by content dedup instead of a write.",
		func() int64 { return s.Stats().PagesShared })
	reg.NewCounterFunc("cdb_snapshot_pages_reused_total",
		"Written pages that recycled a freed slot instead of growing the file.",
		func() int64 { return s.Stats().PagesReused })
	reg.NewCounterFunc("cdb_snapshot_relations_encoded_total",
		"Relations a commit ordered, encoded, chunked and hashed.",
		func() int64 { return s.Stats().RelationsEncoded })
	reg.NewCounterFunc("cdb_snapshot_relations_reused_total",
		"Relations a commit took the stored form of from the relation itself (no encoding; pages still compared and written).",
		func() int64 { return s.Stats().RelationsReused })
	reg.NewCounterFunc("cdb_snapshot_relations_decoded_total",
		"Relations a materialise decoded from their pages.",
		func() int64 { return s.Stats().RelationsDecoded })
	reg.NewCounterFunc("cdb_snapshot_relations_shared_total",
		"Relations a materialise shared with a database still in memory (no decoding; pages still read and verified).",
		func() int64 { return s.Stats().RelationsShared })
	reg.NewCounterFunc("cdb_wal_appends_total",
		"WAL records appended.",
		func() int64 { return s.Stats().WALAppends })
	reg.NewCounterFunc("cdb_wal_fsyncs_total",
		"WAL fsync batches (one per commit, fork or release).",
		func() int64 { return s.Stats().WALFlushes })
	reg.NewCounterFunc("cdb_wal_bytes_total",
		"Bytes durably appended to the WAL.",
		func() int64 { return s.Stats().WALBytes })
	reg.NewGaugeFunc("cdb_snapshots_live",
		"Snapshots currently live in the store.",
		func() int64 { return int64(s.Stats().Snapshots) })
	reg.NewGaugeFunc("cdb_snapshot_pages_live",
		"Distinct pages referenced by at least one live snapshot.",
		func() int64 { return int64(s.Stats().PagesLive) })
	reg.NewGaugeFunc("cdb_snapshot_pages_free",
		"Allocated pages on the free list, awaiting reuse.",
		func() int64 { return int64(s.Stats().PagesFree) })
}
