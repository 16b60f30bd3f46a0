package core

import (
	"bytes"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"postlob/internal/adt"
	"postlob/internal/buffer"
	"postlob/internal/catalog"
	"postlob/internal/heap"
	"postlob/internal/storage"
	"postlob/internal/txn"
)

// parkMgr parks the first WriteBlocks call to one relation until release is
// closed, and records the relation's device writes and syncs in the order
// they land.
type parkMgr struct {
	storage.Manager
	watch   storage.RelName
	entered chan struct{}
	release chan struct{}
	once    sync.Once

	mu     sync.Mutex
	events []string
}

func (m *parkMgr) record(ev string) {
	m.mu.Lock()
	m.events = append(m.events, ev)
	m.mu.Unlock()
}

func (m *parkMgr) snapshot() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.events...)
}

func (m *parkMgr) WriteBlocks(rel storage.RelName, blk storage.BlockNum, bufs [][]byte) error {
	if rel == m.watch {
		m.once.Do(func() {
			close(m.entered)
			<-m.release
		})
	}
	err := m.Manager.WriteBlocks(rel, blk, bufs)
	if rel == m.watch {
		m.record("write")
	}
	return err
}

func (m *parkMgr) Sync(rel storage.RelName) error {
	if rel == m.watch {
		m.record("sync")
	}
	return m.Manager.Sync(rel)
}

// Store.Flush must not report an object durable while a background
// write-back of one of its pages is still on its way to the device: the
// writer round has already cleared the page's dirty bit, so only the drain
// gate stands between the flush and a Sync that misses the page.
func TestFlushWaitsForInFlightWriteBack(t *testing.T) {
	dir := t.TempDir()
	pm := &parkMgr{
		Manager: storage.NewMemManager(storage.DeviceModel{}, nil),
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	sw := storage.NewSwitch()
	sw.Register(storage.Mem, pm)
	pool := &heap.Pool{Buf: buffer.NewPool(64, sw, nil), Mgr: txn.NewManager()}
	pool.Buf.StartEngine(buffer.EngineConfig{Manual: true})
	defer pool.Buf.StopEngine()
	s := NewStore(pool, catalog.NewMemory(), adt.NewRegistry(), Config{
		FilesDir:  filepath.Join(dir, "pfiles"),
		DefaultSM: storage.Mem,
	})

	tx := s.mgr().Begin()
	ref, obj, err := s.Create(tx, CreateOptions{Kind: adt.KindFChunk})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Write(bytes.Repeat([]byte("durable?"), 3000)); err != nil {
		t.Fatal(err)
	}
	if err := obj.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	meta, err := s.cat.Object(catalog.OID(ref.OID))
	if err != nil {
		t.Fatal(err)
	}
	pm.watch = meta.DataRel
	release := sync.OnceFunc(func() { close(pm.release) })
	t.Cleanup(release) // a failed assertion must not leave the round parked

	// A writer round takes every dirty page, clears their dirty bits, and
	// parks in the data relation's device write.
	round := make(chan error, 1)
	go func() {
		_, err := pool.Buf.BgWriterRound(0)
		round <- err
	}()
	select {
	case <-pm.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("writer round never reached the data relation")
	}

	flushed := make(chan error, 1)
	go func() { flushed <- s.Flush(ref) }()
	select {
	case err := <-flushed:
		t.Fatalf("Flush returned (%v) while a write-back of the object was still in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	release()
	if err := <-round; err != nil {
		t.Fatal(err)
	}
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	if got := pm.snapshot(); len(got) < 2 || got[0] != "write" || got[len(got)-1] != "sync" {
		t.Fatalf("data relation device events = %v, want the parked write before the flush's sync", got)
	}
}

// A checkpoint saves pg_log with the commits made before its flush began,
// never one made during it: the flush may have passed that commit's pages
// by. A transaction commits while the checkpoint's flush is parked in a
// device write; the saved log must report the earlier commit and leave the
// later one out.
func TestCheckpointOmitsCommitDuringFlush(t *testing.T) {
	dir := t.TempDir()
	pm := &parkMgr{
		Manager: storage.NewMemManager(storage.DeviceModel{}, nil),
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	sw := storage.NewSwitch()
	sw.Register(storage.Mem, pm)
	logPath := filepath.Join(dir, "pg_log")
	mgr := txn.NewManager()
	mgr.SetLogPath(logPath)
	pool := &heap.Pool{Buf: buffer.NewPool(64, sw, nil), Mgr: mgr}
	s := NewStore(pool, catalog.NewMemory(), adt.NewRegistry(), Config{
		FilesDir:  filepath.Join(dir, "pfiles"),
		DefaultSM: storage.Mem,
	})
	create := func() (*txn.Txn, adt.ObjectRef) {
		t.Helper()
		tx := mgr.Begin()
		ref, obj, err := s.Create(tx, CreateOptions{Kind: adt.KindFChunk})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := obj.Write(bytes.Repeat([]byte("cut"), 3000)); err != nil {
			t.Fatal(err)
		}
		if err := obj.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		return tx, ref
	}
	before, ref := create()
	meta, err := s.cat.Object(catalog.OID(ref.OID))
	if err != nil {
		t.Fatal(err)
	}
	pm.watch = meta.DataRel
	release := sync.OnceFunc(func() { close(pm.release) })
	t.Cleanup(release) // a failed assertion must not leave the flush parked

	done := make(chan error, 1)
	go func() { done <- Checkpoint(pool, nil) }()
	select {
	case <-pm.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("checkpoint flush never reached the data relation")
	}
	during, _ := create()
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	saved, err := txn.Load(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if st := saved.Status(before.ID()); st != txn.Committed {
		t.Errorf("saved pg_log: commit before the checkpoint is %v, want committed", st)
	}
	if st := saved.Status(during.ID()); st == txn.Committed {
		t.Errorf("saved pg_log: commit during the checkpoint's flush is %v, want it left out", st)
	}
}
