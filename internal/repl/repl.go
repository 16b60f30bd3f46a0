// Package repl implements WAL-shipping replication: a primary-side Sender
// that streams the durable write-ahead log to any number of replicas, and a
// replica-side Receiver that continuously replays it into its own buffer
// pool and transaction manager, so the replica serves read-only snapshot
// traffic from local pages — never proxying back to the primary.
//
// The design leans on three properties the rest of the system already
// guarantees:
//
//   - Physical redo is idempotent. WAL records carry full page images, so a
//     replica (like crash recovery) applies "these bytes, whatever was
//     there" and re-replay after its own crash is harmless. The replica's
//     durable position (pg_repl_ctl) is checkpoint-grained and always lags
//     its pool flushes, so the resume window only ever re-applies.
//
//   - Only durable primary bytes ship. The sender reads through
//     wal.Log.ReadDurable, so a replica can never hold records the primary
//     itself could lose in a crash — a replica is always a prefix of the
//     primary's durable history.
//
//   - Replication slots pin the log. A connected replica holds a slot at
//     its durable LSN; checkpoint truncation clamps to the minimum slot, so
//     a fuzzy checkpoint cannot drop segments a live replica still needs.
//     Slots are in-memory: a dead replica stops pinning the log the moment
//     it disconnects, and a reconnect that finds its position truncated
//     falls back to a full base resync (ErrGone → base backup).
//
// The catalog rides outside the WAL (it is a JSON document, not pages), so
// the sender ships versioned catalog snapshots: taken after a records batch
// is read and sent before it, which guarantees the replica's catalog always
// covers every commit it has applied. Transaction status ships the same way
// during a base backup (txn.Manager.EncodeState) and as commit/abort/
// checkpoint records during streaming.
//
// Replay is the only non-recovery writer of a replica's pool — it goes
// through buffer.Pool.ApplyRedoImage, and the lobvet walorder analyzer
// enforces that caller set — so replica reads (server time-travel opens at
// a pinned snapshot) need no coordination beyond the page latches the pool
// already takes.
package repl

import "postlob/internal/obs"

// Package metrics. Gauges carry the instantaneous replication positions (on
// the primary: the minimum across connected replicas is what the slot
// mechanism holds the log for; the gauges report the most recent status);
// the lag histogram records byte-lag — durable minus applied at each status
// message — using the histogram's duration axis with one "nanosecond" per
// byte.
var (
	obsApplied    = obs.NewGauge("repl.applied_lsn")
	obsDurableLSN = obs.NewGauge("repl.replica_durable_lsn")
	obsLagBytes   = obs.NewGauge("repl.lag_bytes")
	obsLagHist    = obs.NewHistogram("repl.lag")
	obsShipped    = obs.NewCounter("repl.bytes_shipped")
	obsConnected  = obs.NewGauge("repl.connected")
	obsReconnects = obs.NewCounter("repl.reconnects")
	obsBase       = obs.NewCounter("repl.base_backups")
	obsFrameErr   = obs.NewCounter("repl.frame_errors")
	obsApplyBatch = obs.NewTimer("repl.apply_batch")
)
