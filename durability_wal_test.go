package postlob

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWALCommitSurvivesCrash commits under DurabilityWAL and then abandons
// the DB object without Close or Checkpoint — simulating a crash with the
// committed bytes living only in the log. A fresh Open must replay the WAL
// and see the data, even though no data page was ever checkpointed.
func TestWALCommitSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Durability: DurabilityWAL})
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	ref, obj, err := db.LargeObjects().Create(tx, CreateOptions{Kind: FChunk})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("logged. "), 5000)
	obj.Write(payload)
	if err := obj.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close, no Checkpoint. The committed pages exist only as WAL
	// page images; recovery must rebuild them. The engine's goroutines die
	// with the process — a surviving writer would race the reopened database
	// for the same files.
	db.pool.Buf.StopEngine()

	db2, err := Open(dir, Options{Durability: DurabilityWAL})
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
		t.Fatalf("WAL-committed data lost in crash: %d bytes", len(got))
	}
}

// TestWALReopenInDefaultMode crashes a WAL-mode database and reopens it
// with default (checkpoint-granularity) options. Open must still run redo
// recovery — the pg_wal_ctl file marks the log as live — so the committed
// data is visible, and the reopened database works in lazy mode afterwards.
func TestWALReopenInDefaultMode(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Durability: DurabilityWAL})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RunInTxn(func(tx *Txn) error {
		if _, err := db.Exec(tx, `create T (x = int4)`); err != nil {
			return err
		}
		_, err := db.Exec(tx, `append T (x = 7)`)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// Crash without Close or Checkpoint (goroutines die with the process).
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
	if len(res.Rows) != 1 || res.Rows[0][0].Int != 7 {
		t.Fatalf("rows after WAL recovery in default mode = %v", res.Rows)
	}
	if st := db2.Stats(); st.WALSegments != 0 {
		t.Fatalf("default-mode reopen left the WAL attached: %+v", st)
	}
}

// TestWALAbortInvisibleAfterCrash interleaves a committed and an aborted
// transaction, crashes, and checks redo replays the committed one while the
// aborted transaction's bytes stay invisible under tuple visibility.
func TestWALAbortInvisibleAfterCrash(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Durability: DurabilityWAL})
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
	txAbort := db.Begin()
	if _, err := db.Exec(txAbort, `append T (x = 2)`); err != nil {
		t.Fatal(err)
	}
	txAbort.Abort()
	if err := db.RunInTxn(func(tx *Txn) error {
		_, err := db.Exec(tx, `append T (x = 3)`)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// Crash (goroutines die with the process).
	db.pool.Buf.StopEngine()

	db2, err := Open(dir, Options{Durability: DurabilityWAL})
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
	got := map[int64]bool{}
	for _, row := range res.Rows {
		got[row[0].Int] = true
	}
	if len(got) != 2 || !got[1] || !got[3] || got[2] {
		t.Fatalf("rows after crash = %v (want x=1 and x=3 only)", res.Rows)
	}
}

// TestWALReadOnlyTxnLeavesNoTrace: in WAL mode a transaction that only reads
// commits or aborts without appending a record — the log's end does not move
// and no group flush is waited for — and without a pg_log entry, while a
// writer still logs its commit.
func TestWALReadOnlyTxnLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	// No background writer: nothing but the transactions below may append.
	db, err := Open(dir, Options{Durability: DurabilityWAL, BackgroundWriter: new(bool)})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	payload := bytes.Repeat([]byte("read me "), 3000)
	tx := db.Begin()
	ref, obj, err := db.LargeObjects().Create(tx, CreateOptions{Kind: FChunk})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := obj.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	logSize := func() int64 {
		t.Helper()
		fi, err := os.Stat(filepath.Join(dir, "pg_log"))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	end, size := db.wlog.End(), logSize()
	for i := 0; i < 200; i++ {
		tx := db.Begin()
		obj, err := db.LargeObjects().Open(tx, ref)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(obj)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("read %d: %d bytes, %v", i, len(got), err)
		}
		if err := obj.Close(); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			_, err = tx.Commit()
		} else {
			err = tx.Abort()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := db.wlog.End(); got != end {
		t.Fatalf("read-only transactions moved the log end from %d to %d", end, got)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := logSize(); got != size {
		t.Fatalf("read-only transactions grew pg_log from %d to %d bytes", size, got)
	}
	end = db.wlog.End()
	if err := db.RunInTxn(func(tx *Txn) error {
		obj, err := db.LargeObjects().Open(tx, ref)
		if err != nil {
			return err
		}
		if _, err := obj.Write([]byte("written")); err != nil {
			return err
		}
		return obj.Close()
	}); err != nil {
		t.Fatal(err)
	}
	if db.wlog.End() == end {
		t.Fatal("a writing transaction appended nothing to the log")
	}
}
