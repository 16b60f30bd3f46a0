package buffer

// Unit tests for the pool's WAL coupling: LogDirtyPages captures exactly
// the pages changed since their last image, write-back under an attached
// log appends images for never-logged pages, and the flush ceiling forces
// the newest logged image durable before the home-location write.

import (
	"strings"
	"sync"
	"testing"
	"time"

	"postlob/internal/page"
	"postlob/internal/storage"
	"postlob/internal/wal"
)

// orderMgr wraps a manager and records every write and sync, so a test can
// assert device-level ordering between the log and the data relations.
type orderMgr struct {
	storage.Manager
	mu     sync.Mutex
	events []string
}

func (o *orderMgr) WriteBlock(rel storage.RelName, blk storage.BlockNum, buf []byte) error {
	o.mu.Lock()
	o.events = append(o.events, "write:"+string(rel))
	o.mu.Unlock()
	return o.Manager.WriteBlock(rel, blk, buf)
}

func (o *orderMgr) WriteBlocks(rel storage.RelName, blk storage.BlockNum, bufs [][]byte) error {
	o.mu.Lock()
	o.events = append(o.events, "write:"+string(rel))
	o.mu.Unlock()
	return o.Manager.WriteBlocks(rel, blk, bufs)
}

func (o *orderMgr) Sync(rel storage.RelName) error {
	o.mu.Lock()
	o.events = append(o.events, "sync:"+string(rel))
	o.mu.Unlock()
	return o.Manager.Sync(rel)
}

func (o *orderMgr) snapshot() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]string(nil), o.events...)
}

// newWALPool builds a pool over a recording manager with an attached log on
// the same device, so one event stream shows log and data writes in order.
func newWALPool(t *testing.T, cap int) (*Pool, *wal.Log, *orderMgr) {
	t.Helper()
	om := &orderMgr{Manager: storage.NewMemManager(storage.DeviceModel{}, nil)}
	sw := storage.NewSwitch()
	sw.Register(storage.Mem, om)
	pool := NewPool(cap, sw, nil)
	log, err := wal.Open(om, wal.Config{SegBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	pool.AttachWAL(log)
	return pool, log, om
}

func dirtyBlock(t *testing.T, pool *Pool, rel storage.RelName, fill byte) storage.BlockNum {
	t.Helper()
	mgr, err := pool.Switch().Get(storage.Mem)
	if err != nil {
		t.Fatal(err)
	}
	if !mgr.Exists(rel) {
		if err := mgr.Create(rel); err != nil {
			t.Fatal(err)
		}
	}
	f, blk, err := pool.Rel(storage.Mem, rel).NewBlock()
	if err != nil {
		t.Fatal(err)
	}
	f.LockContent()
	for i := range f.Page() {
		f.Page()[i] = fill
	}
	f.MarkDirty()
	f.UnlockContent()
	f.Release()
	return blk
}

// replayRecords flushes and closes the log, reopens it over the same
// device — Replay scans only what was durable at Open, exactly like crash
// recovery — and returns every record found.
func replayRecords(t *testing.T, log *wal.Log, om *orderMgr) []*wal.Record {
	t.Helper()
	if err := log.Flush(log.End()); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := wal.Open(om, wal.Config{SegBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	var recs []*wal.Record
	if err := reopened.Replay(func(r *wal.Record) error {
		cp := *r
		cp.Image = append([]byte(nil), r.Image...)
		recs = append(recs, &cp)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// replayImages filters replayRecords down to (rel, blk, xid) image keys.
type imageKey struct {
	rel storage.RelName
	blk storage.BlockNum
	xid uint32
}

func replayImages(t *testing.T, log *wal.Log, om *orderMgr) []imageKey {
	t.Helper()
	var images []imageKey
	for _, r := range replayRecords(t, log, om) {
		if r.Type == wal.TypePageImage {
			images = append(images, imageKey{r.Rel, r.Blk, r.XID})
		}
	}
	return images
}

// TestLogDirtyPagesCapturesOnce checks LogDirtyPages images every changed
// page exactly once — a second call with no intervening mutation appends
// nothing — and that a fresh mutation re-arms the page.
func TestLogDirtyPagesCapturesOnce(t *testing.T) {
	pool, log, om := newWALPool(t, 16)
	blkA := dirtyBlock(t, pool, "rel_a", 0x11)
	dirtyBlock(t, pool, "rel_b", 0x22)

	lsn, err := pool.LogDirtyPages(7)
	if err != nil {
		t.Fatal(err)
	}
	if lsn == 0 {
		t.Fatal("LogDirtyPages logged nothing for two dirty pages")
	}
	if again, err := pool.LogDirtyPages(8); err != nil || again != 0 {
		t.Fatalf("second LogDirtyPages = %d, %v (want 0, nil)", again, err)
	}

	// Re-dirty one page; only it gets a fresh image.
	f, err := pool.Get(Tag{SM: storage.Mem, Rel: "rel_a", Blk: blkA})
	if err != nil {
		t.Fatal(err)
	}
	f.LockContent()
	f.Page()[0] = 0x33
	f.MarkDirty()
	f.UnlockContent()
	f.Release()
	if lsn2, err := pool.LogDirtyPages(9); err != nil || lsn2 <= lsn {
		t.Fatalf("re-dirtied page not re-logged: lsn %d after %d, %v", lsn2, lsn, err)
	}

	images := replayImages(t, log, om)
	if len(images) != 3 {
		t.Fatalf("replay saw %d page images, want 3: %v", len(images), images)
	}
	// The first batch appends in sorted (SM, Rel, Blk) order for determinism.
	if images[0].rel != "rel_a" || images[1].rel != "rel_b" || images[2].rel != "rel_a" {
		t.Fatalf("unexpected image order: %v", images)
	}
	if images[0].xid != 7 || images[2].xid != 9 {
		t.Fatalf("images carry wrong xids: %v", images)
	}
}

// TestWriteBackLogsUnloggedPage checks eviction-path write-back appends an
// image (attributed to XID 0) for a page no commit ever logged.
func TestWriteBackLogsUnloggedPage(t *testing.T) {
	pool, log, om := newWALPool(t, 16)
	dirtyBlock(t, pool, "rel_c", 0x44)
	if err := pool.FlushRel(storage.Mem, "rel_c"); err != nil {
		t.Fatal(err)
	}
	images := replayImages(t, log, om)
	if len(images) != 1 || images[0].rel != "rel_c" || images[0].xid != 0 {
		t.Fatalf("write-back images = %v, want one rel_c image with xid 0", images)
	}
}

// TestWriteBackFlushCeiling checks the durability ordering at the device:
// the log segment holding a page's newest image is written and synced
// before the page's home-location write lands.
func TestWriteBackFlushCeiling(t *testing.T) {
	pool, _, om := newWALPool(t, 16)
	dirtyBlock(t, pool, "rel_d", 0x55)
	if _, err := pool.LogDirtyPages(3); err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushRel(storage.Mem, "rel_d"); err != nil {
		t.Fatal(err)
	}
	events := homeAndLogEvents(om.snapshot())
	home := -1
	lastLogSync := -1
	for i, ev := range events {
		switch {
		case ev == "write:rel_d":
			if home == -1 {
				home = i
			}
		case strings.HasPrefix(ev, "sync:pg_wal_0"):
			if home == -1 {
				lastLogSync = i
			}
		}
	}
	if home == -1 {
		t.Fatalf("no home-location write recorded: %v", events)
	}
	if lastLogSync == -1 {
		t.Fatalf("home write at %d not preceded by a log segment sync: %v", home, events)
	}
}

// homeAndLogEvents drops events from Open-time recovery bookkeeping (the
// ctl file) so ordering assertions read only data and segment traffic.
func homeAndLogEvents(events []string) []string {
	keep := events[:0:0]
	for _, ev := range events {
		if !strings.HasSuffix(ev, "_ctl") {
			keep = append(keep, ev)
		}
	}
	return keep
}

// TestDropRelFlushesDirtyUnderWAL is a deadlock regression test: dropping a
// relation with dirty pages used to write them back — and through that
// LogDirtyPages, which takes every partition lock — while dropRelOnce
// already held every partition lock, hanging forever. The drop must finish,
// leave the relation's bytes on the device, and have logged its images.
func TestDropRelFlushesDirtyUnderWAL(t *testing.T) {
	pool, log, om := newWALPool(t, 16)
	blk := dirtyBlock(t, pool, "rel_f", 0x77)
	dirtyBlock(t, pool, "rel_g", 0x88) // a sibling dirty page rides the batch

	done := make(chan error, 1)
	go func() { done <- pool.DropRel(storage.Mem, "rel_f", false) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("DropRel deadlocked on a dirty relation under WAL")
	}

	buf := make([]byte, page.Size)
	if err := om.ReadBlock("rel_f", blk, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x77 {
		t.Fatalf("device byte %#x after drop, want 0x77", buf[0])
	}
	var sawDropped bool
	for _, img := range replayImages(t, log, om) {
		if img.rel == "rel_f" {
			sawDropped = true
		}
	}
	if !sawDropped {
		t.Fatal("dropped relation's dirty page never reached the log")
	}
}

// TestWriteBackCeilingCoversBatch checks the write-back flush ceiling spans
// the whole pre-logged batch: when flushing rel_h also logs sibling rel_i's
// image, the log must be durable through the end of both images — not just
// rel_h's own — before the home-location write returns.
func TestWriteBackCeilingCoversBatch(t *testing.T) {
	pool, log, _ := newWALPool(t, 16)
	dirtyBlock(t, pool, "rel_h", 0x11)
	dirtyBlock(t, pool, "rel_i", 0x22) // sorts after rel_h in the batch
	if err := pool.FlushRel(storage.Mem, "rel_h"); err != nil {
		t.Fatal(err)
	}
	if d, e := log.Durable(), log.End(); d < e {
		t.Fatalf("durable LSN %d below batch end %d after write-back", d, e)
	}
}

// TestFlushCeilingSurvivesReplay ties the ceiling to its purpose: after a
// write-back, everything the device holds is reproducible from the log —
// replaying onto a fresh device yields the flushed page bytes.
func TestFlushCeilingSurvivesReplay(t *testing.T) {
	pool, log, om := newWALPool(t, 16)
	blk := dirtyBlock(t, pool, "rel_e", 0x66)
	if _, err := pool.LogDirtyPages(4); err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushRel(storage.Mem, "rel_e"); err != nil {
		t.Fatal(err)
	}
	fresh := storage.NewMemManager(storage.DeviceModel{}, nil)
	for _, r := range replayRecords(t, log, om) {
		if r.Type != wal.TypePageImage || r.Rel != "rel_e" {
			continue
		}
		if !fresh.Exists(r.Rel) {
			if err := fresh.Create(r.Rel); err != nil {
				t.Fatal(err)
			}
		}
		if err := fresh.WriteBlock(r.Rel, r.Blk, r.Image); err != nil {
			t.Fatal(err)
		}
	}
	replayed := make([]byte, page.Size)
	if err := fresh.ReadBlock("rel_e", blk, replayed); err != nil {
		t.Fatal(err)
	}
	device := make([]byte, page.Size)
	if err := om.ReadBlock("rel_e", blk, device); err != nil {
		t.Fatal(err)
	}
	if string(replayed) != string(device) {
		t.Fatal("replayed page differs from the device page the ceiling protected")
	}
}
