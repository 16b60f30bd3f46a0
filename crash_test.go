package postlob

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"postlob/internal/storage"
)

// openCrashDB opens a database whose real disk manager sits behind a
// CrashManager volatile write cache, via Options.WrapStorage. Its commits
// are forced with forceCommit.
func openCrashDB(t *testing.T, dir string, seed int64) (*DB, *storage.CrashManager) {
	t.Helper()
	var cm *storage.CrashManager
	db, err := Open(dir, Options{
		BufferPoolPages: 32,
		WrapStorage: func(id storage.ID, mgr storage.Manager) storage.Manager {
			if id != storage.Disk {
				return mgr
			}
			cm = storage.NewCrashManager(mgr, storage.CrashConfig{Seed: seed})
			return cm
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cm == nil {
		t.Fatal("WrapStorage never saw the disk manager")
	}
	return db, cm
}

// forceCommit commits tx and checkpoints at once: force-at-commit, the
// POSTGRES no-write-ahead-log discipline.
func forceCommit(db *DB, tx *Txn) error {
	if _, err := tx.Commit(); err != nil {
		return err
	}
	return db.Checkpoint()
}

// A forced commit survives a power cut that strikes right after it
// returns; an uncommitted transaction leaves no trace. The database is
// re-opened with plain Options — recovery runs against exactly the bytes
// the crash left on the real disk manager.
func TestWrapStorageCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	db, cm := openCrashDB(t, dir, 11)

	v1 := bytes.Repeat([]byte("durable "), 4000)
	var ref ObjectRef
	tx := db.Begin()
	ref, obj, err := db.LargeObjects().Create(tx, CreateOptions{Kind: FChunk})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Write(v1); err != nil {
		t.Fatal(err)
	}
	if err := obj.Close(); err != nil {
		t.Fatal(err)
	}
	if err := forceCommit(db, tx); err != nil {
		t.Fatal(err)
	}

	// A second transaction overwrites the object but never commits.
	tx2 := db.Begin()
	obj2, err := db.LargeObjects().Open(tx2, ref)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj2.Write(bytes.Repeat([]byte{0xEE}, 20000)); err != nil {
		t.Fatal(err)
	}
	if err := obj2.Close(); err != nil {
		t.Fatal(err)
	}
	// Power cut: unsynced writes are gone; no Close, no Checkpoint. The
	// process dies with the machine, so the background engine's goroutines
	// must not outlive the "crash" and keep writing (and noting errors
	// against the dead device) while the reopened database runs.
	cm.Crash()
	db.pool.Buf.StopEngine()

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer db2.Close()
	rtx := db2.Begin()
	defer rtx.Abort()
	robj, err := db2.LargeObjects().Open(rtx, ref)
	if err != nil {
		t.Fatalf("open committed object after crash: %v", err)
	}
	defer robj.Close()
	got, err := io.ReadAll(robj)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v1) {
		t.Fatalf("recovered %d bytes, want the committed version (%d bytes)", len(got), len(v1))
	}
}

// A crash in the middle of the checkpoint that forces a commit must surface
// from the checkpoint, and recovery must roll the transaction back
// entirely: the log is never written ahead of the data it describes.
func TestWrapStorageCrashMidCommit(t *testing.T) {
	dir := t.TempDir()
	db, cm := openCrashDB(t, dir, 23)

	v1 := bytes.Repeat([]byte("baseline"), 3000)
	var ref ObjectRef
	tx := db.Begin()
	ref, obj, err := db.LargeObjects().Create(tx, CreateOptions{Kind: FChunk})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Write(v1); err != nil {
		t.Fatal(err)
	}
	if err := obj.Close(); err != nil {
		t.Fatal(err)
	}
	if err := forceCommit(db, tx); err != nil {
		t.Fatal(err)
	}

	tx2 := db.Begin()
	obj2, err := db.LargeObjects().Open(tx2, ref)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj2.Write(bytes.Repeat([]byte{0xAB}, 30000)); err != nil {
		t.Fatal(err)
	}
	if err := obj2.Close(); err != nil {
		t.Fatal(err)
	}
	// The machine dies two storage operations into the commit's checkpoint.
	cm.CrashAfter(2)
	if err := forceCommit(db, tx2); !errors.Is(err, storage.ErrCrashed) {
		t.Fatalf("mid-checkpoint forced commit error = %v, want ErrCrashed", err)
	}
	// The crash takes the process's goroutines with it.
	db.pool.Buf.StopEngine()

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after mid-commit crash: %v", err)
	}
	defer db2.Close()
	rtx := db2.Begin()
	defer rtx.Abort()
	robj, err := db2.LargeObjects().Open(rtx, ref)
	if err != nil {
		t.Fatalf("open object after mid-commit crash: %v", err)
	}
	defer robj.Close()
	got, err := io.ReadAll(robj)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v1) {
		t.Fatalf("recovered %d bytes, want the pre-crash committed version (%d bytes)", len(got), len(v1))
	}
}
