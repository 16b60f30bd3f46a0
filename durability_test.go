package postlob

import (
	"bytes"
	"io"
	"strings"
	"sync/atomic"
	"testing"

	"postlob/internal/storage"
)

// TestDurabilityForceSurvivesCrash commits under DurabilityForce and then
// abandons the DB object without Close or Checkpoint — simulating a crash.
// A fresh Open over the same directory must see the committed data.
func TestDurabilityForceSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Durability: DurabilityForce})
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
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close, no Checkpoint. (The storage managers hold open file
	// descriptors, but all committed state is already on disk.) A real crash
	// kills the background engine too — it must not keep writing into the
	// directory the reopened database owns.
	db.pool.Buf.StopEngine()

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tx2 := db2.Begin()
	defer tx2.Abort()
	obj2, err := db2.LargeObjects().Open(tx2, ref)
	if err != nil {
		t.Fatal(err)
	}
	defer obj2.Close()
	got, err := io.ReadAll(obj2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("committed data lost in crash: %d bytes", len(got))
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
