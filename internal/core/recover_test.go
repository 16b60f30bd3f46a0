package core

import (
	"bytes"
	"path/filepath"
	"testing"

	"postlob/internal/buffer"
	"postlob/internal/heap"
	"postlob/internal/page"
	"postlob/internal/storage"
	"postlob/internal/txn"
	"postlob/internal/wal"
)

// TestRecoverRedoRules pins crash recovery's redo rules on a hand-built log:
// an image past a relation's end fills the blocks below it with zero pages,
// the last image of a block wins over the device and over earlier images, an
// unlink drops what came before it (images after it recreate the relation
// from nothing), an unlink nothing follows leaves no storage, and commit,
// abort and checkpoint records rebuild outcomes and counters. Recovery ends
// with the ordinary checkpoint: every replayed page is clean and on the
// device, nothing is left for a newly attached log to image, and the log
// replays only that checkpoint, which carries the manager's counters.
func TestRecoverRedoRules(t *testing.T) {
	img := func(fill byte) []byte { return bytes.Repeat([]byte{fill}, page.Size) }
	data := storage.NewMemManager(storage.DeviceModel{}, nil)
	logDev := storage.NewMemManager(storage.DeviceModel{}, nil)

	// What the crash left on the device: stale blocks the log overrides.
	for rel, n := range map[storage.RelName]int{"twice": 1, "reborn": 4, "gone": 2} {
		if err := data.Create(rel); err != nil {
			t.Fatal(err)
		}
		for b := 0; b < n; b++ {
			if err := data.WriteBlock(rel, storage.BlockNum(b), img(0xEE)); err != nil {
				t.Fatal(err)
			}
		}
	}

	wlog, err := wal.Open(logDev, wal.Config{SegBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	must := func(_ wal.LSN, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(wlog.Checkpoint(0, wal.CheckpointMeta{NextXID: 50, NowTS: 500}))
	must(wlog.AppendPageImage(storage.Mem, "hole", 5, img(0x55), 1))
	must(wlog.AppendPageImage(storage.Mem, "twice", 0, img(0xA1), 1))
	must(wlog.AppendPageImage(storage.Mem, "twice", 0, img(0xA2), 2))
	for b := storage.BlockNum(0); b < 3; b++ {
		must(wlog.AppendPageImage(storage.Mem, "reborn", b, img(0xB0+byte(b)), 2))
	}
	must(wlog.AppendUnlink(storage.Mem, "reborn"))
	must(wlog.AppendPageImage(storage.Mem, "reborn", 0, img(0xBB), 3))
	must(wlog.AppendPageImage(storage.Mem, "gone", 1, img(0xC1), 3))
	must(wlog.AppendUnlink(storage.Mem, "gone"))
	must(wlog.AppendCommit(5, 100))
	end, err := wlog.AppendAbort(6)
	if err != nil {
		t.Fatal(err)
	}
	if err := wlog.Flush(end); err != nil {
		t.Fatal(err)
	}
	if err := wlog.Close(); err != nil {
		t.Fatal(err)
	}

	// Reboot: a four-frame pool, so replay evicts (and fills holes) as it
	// goes.
	wlog, err = wal.Open(logDev, wal.Config{SegBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer wlog.Close()
	sw := storage.NewSwitch()
	sw.Register(storage.Mem, data)
	mgr := txn.NewManager()
	logPath := filepath.Join(t.TempDir(), "pg_log")
	mgr.SetLogPath(logPath)
	pool := &heap.Pool{Buf: buffer.NewPool(4, sw, nil), Mgr: mgr}
	if err := Recover(pool, wlog); err != nil {
		t.Fatalf("recover: %v", err)
	}
	// The closing checkpoint saved every replayed outcome.
	if saved, err := txn.Load(logPath); err != nil {
		t.Errorf("commit log after recovery: %v", err)
	} else if ts, ok := saved.CommitTS(5); !ok || ts != 100 {
		t.Errorf("saved commit log: xid 5 commit ts %d (%v), want 100", ts, ok)
	}

	want := map[storage.RelName][]byte{
		"hole":   append(bytes.Repeat(make([]byte, page.Size), 5), img(0x55)...),
		"twice":  img(0xA2),
		"reborn": img(0xBB),
	}
	for rel, w := range want {
		n, err := data.NBlocks(rel)
		if err != nil {
			t.Fatalf("%s: %v", rel, err)
		}
		got := make([]byte, int(n)*page.Size)
		for b := storage.BlockNum(0); b < n; b++ {
			if err := data.ReadBlock(rel, b, got[int(b)*page.Size:][:page.Size]); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(got, w) {
			t.Errorf("%s: device holds %d blocks that differ from the log's last images (want %d blocks)",
				rel, n, len(w)/page.Size)
		}
	}
	if data.Exists("gone") {
		t.Error("gone: unlinked relation still has storage after recovery")
	}

	if st := mgr.Status(5); st != txn.Committed {
		t.Errorf("xid 5: status %v, want committed", st)
	}
	if ts, _ := mgr.CommitTS(5); ts != 100 {
		t.Errorf("xid 5: commit ts %d, want 100", ts)
	}
	if st := mgr.Status(6); st != txn.Aborted {
		t.Errorf("xid 6: status %v, want aborted", st)
	}
	next, now := mgr.Counters()
	if next != 50 || now != 500 {
		t.Errorf("counters after recovery: next xid %d, now %d; want 50, 500", next, now)
	}

	if n, err := pool.Buf.CheckDirtyCounts(); err != nil || n != 0 {
		t.Errorf("dirty frames after recovery: %d (%v), want 0", n, err)
	}
	// Replayed pages are on the device: attaching the log must not queue
	// them to be imaged again.
	AttachWAL(pool, wlog)
	if lsn, err := pool.Buf.LogDirtyPages(0); err != nil || lsn != 0 {
		t.Errorf("first LogDirtyPages after recovery appended up to %d (%v), want nothing", lsn, err)
	}
	if err := wlog.Close(); err != nil {
		t.Fatal(err)
	}

	wlog, err = wal.Open(logDev, wal.Config{SegBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	var seen []wal.Record
	if err := wlog.Replay(func(r *wal.Record) error { seen = append(seen, *r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0].Type != wal.TypeCheckpoint {
		t.Fatalf("second replay visited %d records, want only the end-of-recovery checkpoint", len(seen))
	}
	if c := seen[0]; c.XID != 50 || c.TS != 500 {
		t.Errorf("end-of-recovery checkpoint carries next xid %d, now %d; want 50, 500", c.XID, c.TS)
	}
}
