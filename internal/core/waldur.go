package core

// Durability glue: the adapter that couples a heap.Pool's buffer pool and
// transaction manager to an internal/wal log, the one redo dispatcher that
// crash recovery and replica replay share, and the one checkpoint body,
// with a log or without. This lives in core because it is the one package
// that sees all three layers; postlob's facade, a replica's receiver and the
// crash-simulation harness all checkpoint through it, so their semantics
// cannot drift apart.

import (
	"errors"
	"fmt"
	"time"

	"postlob/internal/buffer"
	"postlob/internal/heap"
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
// records. Call once per open, after Recover and before the pool is shared.
func AttachWAL(pool *heap.Pool, log *wal.Log) {
	pool.Buf.AttachWAL(log)
	pool.Mgr.SetDurabilityLog(&WALDurability{log: log, pool: pool})
}

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

// Checkpoint is the one checkpoint body, one at a time per pool; log is nil
// without a WAL. With a log it takes the redo point. Then it takes the cut,
// the newest commit timestamp: a commit at or below it has all its pages in
// the pool or on the device, and a later one logs its commit record at or
// above the redo point. With a log it pre-logs and group-flushes the dirty
// pages; it flushes and syncs every dirty page; it saves pg_log, synced,
// with the commits at or below the cut, as the flush may miss a later
// commit's pages; and with a log it appends the checkpoint record (counters
// that survive a lost pg_log write), truncating the log below the redo
// point.
func Checkpoint(pool *heap.Pool, log *wal.Log) error {
	pool.CkptMu.Lock()
	defer pool.CkptMu.Unlock()
	var redo wal.LSN
	if log != nil {
		redo = log.RedoPoint()
	}
	_, cut := pool.Mgr.Counters()
	if log != nil {
		lsn, err := pool.Buf.LogDirtyPages(0)
		if err != nil {
			return err
		}
		if lsn > 0 {
			if err := log.Flush(lsn); err != nil {
				return err
			}
		}
	}
	if err := pool.Buf.FlushAll(); err != nil {
		return err
	}
	if err := pool.Mgr.Save(cut); err != nil {
		return err
	}
	if log == nil {
		return nil
	}
	nextXID, nowTS := pool.Mgr.Counters()
	meta := wal.CheckpointMeta{
		NextXID: uint32(nextXID),
		NowTS:   int64(nowTS),
		Oldest:  uint32(pool.Mgr.GlobalXmin()),
	}
	_, err := log.Checkpoint(redo, meta)
	return err
}

// Recover is crash recovery: it replays every record the durable log holds
// from its last checkpoint's redo point through Redo — the dispatcher a
// replica's receiver runs too — and then takes the ordinary checkpoint,
// which flushes and syncs every replayed page, saves the commit log, and
// appends a checkpoint record carrying the manager's counters. Redo is
// unconditional (uncommitted images are inert under no-overwrite
// visibility) and idempotent, so a crash anywhere in here re-replays the same
// log on the next open. Run it after wal.Open and before AttachWAL, the
// catalog, or anything else reads the pool; the replayed pages stay resident
// and clean.
func Recover(pool *heap.Pool, log *wal.Log) error {
	err := log.Replay(func(r *wal.Record) error { return Redo(pool.Buf, pool.Mgr, r) })
	if err != nil {
		return err
	}
	return Checkpoint(pool, log)
}

// Redo applies one WAL record: a page image is installed in the pool as a
// dirty frame (blocks below it that no image has reached yet materialise as
// zero pages), an unlink drops the relation (DropRel), and commit, abort and
// checkpoint records rebuild transaction outcomes and push the manager's
// counters past everything the logged epoch issued. It is the one redo
// dispatcher: crash recovery and a replica's receiver both replay through it.
func Redo(buf *buffer.Pool, mgr *txn.Manager, rec *wal.Record) error {
	var err error
	switch rec.Type {
	case wal.TypePageImage:
		err = buf.ApplyRedoImage(rec.SM, rec.Rel, rec.Blk, rec.Image)
	case wal.TypeUnlink:
		err = DropRel(buf, rec.SM, rec.Rel)
	case wal.TypeCommit:
		mgr.ApplyRecoveredCommit(txn.XID(rec.XID), txn.TS(rec.TS))
	case wal.TypeAbort:
		mgr.ApplyRecoveredAbort(txn.XID(rec.XID))
	case wal.TypeCheckpoint:
		// Legacy records decode with zero counters, which advance nothing.
		mgr.ApplyRecoveredCounters(txn.XID(rec.XID), txn.TS(rec.TS))
	}
	if err != nil {
		return fmt.Errorf("core: redo %v of %s: %w", rec.Type, rec.Rel, err)
	}
	return nil
}

// DropRel discards a relation's pooled pages, dirty ones included, and
// unlinks its storage: the redo of an unlink record, and a replica's clean
// slate before a base backup reinstalls the relation. A replica's snapshot
// readers may hold brief pins; those are waited out rather than failed,
// since replay is the only writer and readers always release.
func DropRel(buf *buffer.Pool, sm storage.ID, rel storage.RelName) error {
	var err error
	for attempt := 0; attempt < 200; attempt++ {
		err = buf.DropRel(sm, rel, true)
		if !errors.Is(err, buffer.ErrPinned) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err != nil {
		return err
	}
	m, err := buf.Switch().Get(sm)
	if err != nil {
		return err
	}
	if m.Exists(rel) {
		return m.Unlink(rel)
	}
	return nil
}
