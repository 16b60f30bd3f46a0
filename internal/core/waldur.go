package core

// Write-ahead-log durability glue: the adapter that couples a heap.Pool's
// buffer pool and transaction manager to an internal/wal log, the redo
// recovery pass that replays the log into the storage switch, and the
// WAL-mode checkpoint. This lives in core because it is the one package that
// sees all three layers; postlob's facade and the crash-simulation harness
// both build their WAL stacks from these pieces so their semantics cannot
// drift apart.

import (
	"fmt"
	"sort"

	"postlob/internal/heap"
	"postlob/internal/page"
	"postlob/internal/storage"
	"postlob/internal/txn"
	"postlob/internal/wal"
)

// WALDurability is a txn.DurabilityLog backed by internal/wal: commits
// append the transaction's unlogged dirty page images plus one commit record
// and wait for a single group fsync; aborts append a lazy abort record.
type WALDurability struct {
	log  *wal.Log
	pool *heap.Pool
}

// AttachWAL wires log into pool: the buffer pool starts honoring the WAL
// flush ceiling and the transaction manager starts writing commit/abort
// records. Call once per open, after RecoverWAL and before the pool is
// shared.
func AttachWAL(pool *heap.Pool, log *wal.Log) *WALDurability {
	d := &WALDurability{log: log, pool: pool}
	pool.Buf.AttachWAL(log)
	pool.Mgr.SetDurabilityLog(d)
	return d
}

// Log returns the underlying write-ahead log.
func (d *WALDurability) Log() *wal.Log { return d.log }

// LogWork implements txn.DurabilityLog: append images of every page modified
// since its last logged image. No flush — the commit record lands right
// behind and one group fsync covers both.
func (d *WALDurability) LogWork(x txn.XID) error {
	_, err := d.pool.Buf.LogDirtyPages(uint32(x))
	return err
}

// LogCommit implements txn.DurabilityLog; called under the transaction
// manager's exclusive lock so log order matches visibility order.
func (d *WALDurability) LogCommit(x txn.XID, ts txn.TS) (uint64, error) {
	lsn, err := d.log.AppendCommit(uint32(x), int64(ts))
	return uint64(lsn), err
}

// LogAbort implements txn.DurabilityLog. Abort records are an optimisation
// (no commit record already means aborted), so the append rides with the
// next group flush rather than forcing one.
func (d *WALDurability) LogAbort(x txn.XID) {
	lsn, err := d.log.AppendAbort(uint32(x))
	if err == nil {
		d.log.FlushLazy(lsn)
	}
}

// WaitDurable implements txn.DurabilityLog: the group-commit park.
func (d *WALDurability) WaitDurable(lsn uint64) error {
	return d.log.Flush(wal.LSN(lsn))
}

// Checkpoint runs the WAL-mode checkpoint: capture the redo point, log and
// group-flush every still-unlogged dirty page (so the FlushAll that follows
// pays no per-page log syncs), flush and sync all data pages, persist the
// commit log via saveLog, and finally append the checkpoint record — which
// truncates every log segment wholly below the redo point. Ordering is the
// recovery contract: the commit log on disk must cover every commit record
// the truncation discards. A sticky background write-back error fails the
// checkpoint from FlushAll, before any record is appended.
func (d *WALDurability) Checkpoint(saveLog func() error) error {
	redo := d.log.RedoPoint()
	lsn, err := d.pool.Buf.LogDirtyPages(0)
	if err != nil {
		return err
	}
	if lsn > 0 {
		if err := d.log.Flush(lsn); err != nil {
			return err
		}
	}
	if err := d.pool.Buf.FlushAll(); err != nil {
		return err
	}
	if saveLog != nil {
		if err := saveLog(); err != nil {
			return err
		}
	}
	// The checkpoint record carries the manager's version metadata — XID and
	// timestamp counters plus the snapshot horizon — so recovery restores
	// version numbering even if the pg_log file write above was lost.
	nextXID, nowTS := d.pool.Mgr.Counters()
	meta := wal.CheckpointMeta{
		NextXID: uint32(nextXID),
		NowTS:   int64(nowTS),
		Oldest:  uint32(d.pool.Mgr.GlobalXmin()),
	}
	if _, err := d.log.CheckpointWithMeta(redo, meta); err != nil {
		return err
	}
	return nil
}

// CheckpointData flushes and syncs every buffered relation — the data half
// of a force-at-commit or checkpoint-grained checkpoint. It lives here (not
// in the facade) because FlushAll call sites must sit in a package that can
// see the WAL flush ceiling, the invariant the walorder analyzer enforces.
func (s *Store) CheckpointData() error {
	return s.pool.Buf.FlushAll()
}

// RecoverWAL replays the durable log into the storage switch and the
// transaction manager: page images are written back to their home locations
// (idempotent physical redo — uncommitted images are inert under
// no-overwrite visibility), unlink records drop resurrected relations,
// commit and abort records rebuild transaction outcomes that finished after
// the last pg_log save. Every relation touched is synced before the call
// returns, so a crash during the next checkpoint's truncation re-replays
// harmlessly. Run it after wal.Open and before the catalog or buffer pool
// read anything; it works on raw storage managers, beneath the pool.
func RecoverWAL(sw *storage.Switch, mgr *txn.Manager, log *wal.Log) error {
	touched := make(map[relKeyWAL]bool)
	zero := make([]byte, page.Size)
	err := log.Replay(func(r *wal.Record) error {
		switch r.Type {
		case wal.TypePageImage:
			m, err := sw.Get(r.SM)
			if err != nil {
				return fmt.Errorf("core: recover page image for %s: %w", r.Rel, err)
			}
			if !m.Exists(r.Rel) {
				if err := m.Create(r.Rel); err != nil {
					return err
				}
			}
			n, err := m.NBlocks(r.Rel)
			if err != nil {
				return err
			}
			// WriteBlock forbids holes; materialise missing blocks below ours
			// as zeros, exactly as the pool's write-back does. Their real
			// contents, if any survived, are other images in this same log.
			for b := n; b < r.Blk; b++ {
				if err := m.WriteBlock(r.Rel, b, zero); err != nil {
					return err
				}
			}
			if err := m.WriteBlock(r.Rel, r.Blk, r.Image); err != nil {
				return err
			}
			touched[relKeyWAL{r.SM, r.Rel}] = true
		case wal.TypeUnlink:
			m, err := sw.Get(r.SM)
			if err != nil {
				return fmt.Errorf("core: recover unlink of %s: %w", r.Rel, err)
			}
			if m.Exists(r.Rel) {
				if err := m.Unlink(r.Rel); err != nil {
					return err
				}
			}
			delete(touched, relKeyWAL{r.SM, r.Rel})
		case wal.TypeCommit:
			mgr.ApplyRecoveredCommit(txn.XID(r.XID), txn.TS(r.TS))
		case wal.TypeAbort:
			mgr.ApplyRecoveredAbort(txn.XID(r.XID))
		case wal.TypeCheckpoint:
			// Version metadata: push the manager's counters past everything
			// the checkpointed epoch had issued. Legacy records decode as
			// zeros, which advance nothing.
			mgr.ApplyRecoveredCounters(txn.XID(r.XID), txn.TS(r.TS))
		}
		return nil
	})
	if err != nil {
		return err
	}
	keys := make([]relKeyWAL, 0, len(touched))
	for k := range touched {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].sm != keys[j].sm {
			return keys[i].sm < keys[j].sm
		}
		return keys[i].rel < keys[j].rel
	})
	for _, k := range keys {
		m, err := sw.Get(k.sm)
		if err != nil {
			return err
		}
		if !m.Exists(k.rel) {
			continue
		}
		if err := m.Sync(k.rel); err != nil {
			return fmt.Errorf("core: recovery sync %s: %w", k.rel, err)
		}
	}
	return nil
}

type relKeyWAL struct {
	sm  storage.ID
	rel storage.RelName
}
