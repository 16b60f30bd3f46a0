package postlob

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"postlob/internal/storage"
	"postlob/internal/txn"
)

// TestForceAtCommitSurvivesCrash commits, checkpoints at once — force-at-
// commit — and then abandons the DB object without Close — simulating a
// crash. A fresh Open over the same directory must see the committed data.
func TestForceAtCommitSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ref ObjectRef
	tx := db.Begin()
	ref, obj, err := db.LargeObjects().Create(tx, CreateOptions{Kind: FChunk, Codec: "fast"})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("forced. "), 5000)
	obj.Write(payload)
	if err := obj.Close(); err != nil {
		t.Fatal(err)
	}
	if err := forceCommit(db, tx); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close. (The storage managers hold open file descriptors,
	// but all committed state is already on disk.) A real crash kills the
	// background engine too — it must not keep writing into the directory
	// the reopened database owns.
	db.pool.Buf.StopEngine()

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := readObject(t, db2, ref); !bytes.Equal(got, payload) {
		t.Fatalf("committed data lost in crash: %d bytes", len(got))
	}
}

// readObject reads ref whole in a transaction of its own.
func readObject(t *testing.T, db *DB, ref ObjectRef) []byte {
	t.Helper()
	tx := db.Begin()
	defer tx.Abort()
	obj, err := db.LargeObjects().Open(tx, ref)
	if err != nil {
		t.Fatalf("open %v: %v", ref, err)
	}
	defer obj.Close()
	got, err := io.ReadAll(obj)
	if err != nil {
		t.Fatalf("read %v: %v", ref, err)
	}
	return got
}

// evictingOverwrite writes n bytes over ref in tx, through a pool far
// smaller than n, so most of the new pages are evicted to the device
// before tx ends.
func evictingOverwrite(t *testing.T, db *DB, tx *Txn, ref ObjectRef, n int) {
	t.Helper()
	obj, err := db.LargeObjects().Open(tx, ref)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Write(bytes.Repeat([]byte("evicted "), n/8)); err != nil {
		t.Fatal(err)
	}
	if err := obj.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReservationOmitsUncheckpointedCommit: Begin's XID reservation rewrites
// pg_log, and must not record there a commit no checkpoint has flushed.
// T1's 16 MiB went through a 64-page pool, so some of its pages are still
// only in the pool; a pg_log that called T1 committed would make a crash
// surface a half-written object. Without the 200 Begins no reservation runs
// and T1 is absent either way.
func TestReservationOmitsUncheckpointedCommit(t *testing.T) {
	dir := t.TempDir()
	off := false
	db, err := Open(dir, Options{BufferPoolPages: 64, BackgroundWriter: &off})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ref := commitObject(t, db, []byte("checkpointed"))
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	t1 := db.Begin()
	evictingOverwrite(t, db, t1, ref, 16<<20)
	if _, err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := db.Begin().Abort(); err != nil {
			t.Fatal(err)
		}
	}
	saved, err := txn.Load(filepath.Join(dir, "pg_log"))
	if err != nil {
		t.Fatal(err)
	}
	if st := saved.Status(t1.ID()); st == txn.Committed {
		t.Fatalf("pg_log reports T1 (xid %d) %v before any checkpoint flushed its pages", t1.ID(), st)
	}
}

// TestKillDuringEvictingTxnKeepsCommittedObject kills the process while a
// transaction that has evicted pages is open: the writes it already made
// stay in the page cache, where a reopen reads them. Under WAL durability
// the committed object must read back byte-identical. Without the WAL the
// same steps leave the object unreadable — an evicted metapage points at a
// B-tree root that was never written; EXPERIMENTS.md records that case.
func TestKillDuringEvictingTxnKeepsCommittedObject(t *testing.T) {
	dir := t.TempDir()
	off := false
	opts := Options{Durability: DurabilityWAL, BufferPoolPages: 64, BackgroundWriter: &off}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	committed := bytes.Repeat([]byte("committed 1 MiB "), (1<<20)/16)
	ref := commitObject(t, db, committed)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	evictingOverwrite(t, db, db.Begin(), ref, 16<<20)
	// Kill: the open transaction never ends, and no Close runs.
	db.pool.Buf.StopEngine()

	db2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := readObject(t, db2, ref); !bytes.Equal(got, committed) {
		t.Fatalf("committed object after a kill: %d bytes, want the committed %d", len(got), len(committed))
	}
}

// TestCheckpointGranularityWithoutForce documents the default: a commit
// without Checkpoint or Close is not durable, but the database stays
// consistent — the half-flushed transaction is invisible after restart.
func TestCheckpointGranularityWithoutForce(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RunInTxn(func(tx *Txn) error {
		if _, err := db.Exec(tx, `create T (x = int4)`); err != nil {
			return err
		}
		_, err := db.Exec(tx, `append T (x = 1)`)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	db.Checkpoint()
	// A later commit that never reaches a checkpoint...
	if err := db.RunInTxn(func(tx *Txn) error {
		_, err := db.Exec(tx, `append T (x = 2)`)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// ...crash (the engine's goroutines die with the process).
	db.pool.Buf.StopEngine()

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tx := db2.Begin()
	defer tx.Abort()
	res, err := db2.Exec(tx, `retrieve (T.x)`)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	// Consistency: either just the checkpointed row, never a torn state.
	for _, row := range res.Rows {
		if row[0].Int != 1 {
			t.Fatalf("unexpected row %v after crash", row)
		}
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows after crash = %v", res.Rows)
	}
}

// ioCountMgr counts the block writes and syncs that reach a storage manager's
// data relations; the write-ahead log's own relations are not counted.
type ioCountMgr struct {
	storage.Manager
	writes, syncs atomic.Int64
}

func isLogRel(rel storage.RelName) bool { return strings.HasPrefix(string(rel), "pg_wal") }

func (m *ioCountMgr) WriteBlock(rel storage.RelName, blk storage.BlockNum, buf []byte) error {
	if !isLogRel(rel) {
		m.writes.Add(1)
	}
	return m.Manager.WriteBlock(rel, blk, buf)
}

func (m *ioCountMgr) WriteBlocks(rel storage.RelName, blk storage.BlockNum, bufs [][]byte) error {
	if !isLogRel(rel) {
		m.writes.Add(int64(len(bufs)))
	}
	return m.Manager.WriteBlocks(rel, blk, bufs)
}

func (m *ioCountMgr) Sync(rel storage.RelName) error {
	if !isLogRel(rel) {
		m.syncs.Add(1)
	}
	return m.Manager.Sync(rel)
}

// TestCloseAfterCheckpointWritesNothing closes a database right after a
// checkpoint: no page has changed since, so the closing checkpoint writes
// no data block and syncs no data relation, however many relations the
// pool knows. (Under WAL durability the close still appends its checkpoint
// record to the log.)
func TestCloseAfterCheckpointWritesNothing(t *testing.T) {
	for _, mode := range []Durability{DurabilityCheckpoint, DurabilityWAL} {
		var disk *ioCountMgr
		db, err := Open(t.TempDir(), Options{
			Durability: mode,
			WrapStorage: func(id storage.ID, mgr storage.Manager) storage.Manager {
				if id != storage.Disk {
					return mgr
				}
				disk = &ioCountMgr{Manager: mgr}
				return disk
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		tx := db.Begin()
		for i := 0; i < 8; i++ {
			_, obj, err := db.LargeObjects().Create(tx, CreateOptions{Kind: FChunk})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := obj.Write(bytes.Repeat([]byte{byte(i)}, 20000)); err != nil {
				t.Fatal(err)
			}
			if err := obj.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if disk.syncs.Load() == 0 {
			t.Fatalf("mode %v: the checkpoint synced nothing", mode)
		}
		writes, syncs := disk.writes.Load(), disk.syncs.Load()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if w, s := disk.writes.Load()-writes, disk.syncs.Load()-syncs; w != 0 || s != 0 {
			t.Fatalf("mode %v: close after a checkpoint wrote %d blocks and synced %d relations, want none", mode, w, s)
		}
	}
}
