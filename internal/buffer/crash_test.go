package buffer

import (
	"bytes"
	"errors"
	"testing"

	"postlob/internal/page"
	"postlob/internal/storage"
)

// newCrashPool builds a tiny pool whose Mem-slot manager is a volatile
// write cache over a durable MemManager, the stack the crash-recovery
// harness uses, with a Manual background engine for writeBackAll. The
// durable medium is returned so tests can inspect (and re-wrap) what
// survives a crash.
func newCrashPool(t *testing.T, frames int, cfg storage.CrashConfig) (*Pool, *storage.CrashManager, *storage.MemManager) {
	t.Helper()
	durable := storage.NewMemManager(storage.DeviceModel{}, nil)
	cm := storage.NewCrashManager(durable, cfg)
	sw := storage.NewSwitch()
	sw.Register(storage.Mem, cm)
	p := NewPool(frames, sw, nil)
	p.StartEngine(EngineConfig{Manual: true})
	t.Cleanup(p.StopEngine)
	return p, cm, durable
}

// writeBackAll moves every dirty page into the volatile cache and syncs
// nothing, the way production gets pages there: background writer rounds.
func writeBackAll(t *testing.T, p *Pool) {
	t.Helper()
	for {
		n, err := p.BgWriterRound(0)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return
		}
	}
}

// rewrapPool is "reboot": a fresh pool and cache over the same durable
// medium, the way a restarted DBMS reopens its disks.
func rewrapPool(t *testing.T, frames int, durable *storage.MemManager) *Pool {
	t.Helper()
	sw := storage.NewSwitch()
	sw.Register(storage.Mem, storage.NewCrashManager(durable, storage.CrashConfig{}))
	return NewPool(frames, sw, nil)
}

// writeRelPages creates rel (via the pool) and fills nblocks slotted pages,
// each holding one recognisable item. The pool is tiny, so early blocks are
// evicted — and written back — while later ones are still being made.
func writeRelPages(t *testing.T, p *Pool, nblocks int, fill byte) {
	t.Helper()
	mgr, err := p.Switch().Get(storage.Mem)
	if err != nil {
		t.Fatal(err)
	}
	if !mgr.Exists(rel) {
		if err := mgr.Create(rel); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nblocks; i++ {
		f, _, err := p.Rel(storage.Mem, rel).NewBlock()
		if err != nil {
			t.Fatal(err)
		}
		f.LockContent()
		f.Page().Init(0)
		if _, err := f.Page().AddItem(bytes.Repeat([]byte{fill, byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
		f.UnlockContent()
		f.MarkDirty()
		f.Release()
	}
}

// readItem fetches block blk through the pool and returns its item 0.
func readItem(t *testing.T, p *Pool, blk storage.BlockNum) []byte {
	t.Helper()
	f, err := p.Get(Tag{SM: storage.Mem, Rel: rel, Blk: blk})
	if err != nil {
		t.Fatalf("get block %d: %v", blk, err)
	}
	defer f.Release()
	item, err := f.Page().Item(0)
	if err != nil {
		t.Fatalf("item on block %d: %v", blk, err)
	}
	return append([]byte(nil), item...)
}

// installCS installs a slotted-page checksummer with rel's handle, as an
// access method's open does.
func installCS(t *testing.T, p *Pool) {
	t.Helper()
	if _, err := Handle(p.Rel(storage.Mem, rel), slottedCS{}, func(r *Rel) *Rel { return r }); err != nil {
		t.Fatal(err)
	}
}

// Write-back alone moves pages only into the volatile cache: a crash before
// Sync must erase every trace of them, relation included.
func TestWriteBackAloneIsNotDurable(t *testing.T) {
	p, cm, durable := newCrashPool(t, 4, storage.CrashConfig{Seed: 1})
	installCS(t, p)
	writeRelPages(t, p, 8, 0xA0)
	writeBackAll(t, p)
	if durable.Exists(rel) {
		t.Fatal("write-back reached the durable medium without a Sync")
	}
	cm.Crash()
	if durable.Exists(rel) {
		t.Fatal("crash materialised an unsynced relation")
	}
}

// FlushRel (write-back then Sync) then crash: the full committed image must
// be readable through a fresh pool, byte for byte.
func TestFlushSyncCrashRecoversImage(t *testing.T) {
	p, cm, durable := newCrashPool(t, 4, storage.CrashConfig{Seed: 2})
	installCS(t, p)
	writeRelPages(t, p, 8, 0xB0)
	if err := p.FlushRel(storage.Mem, rel); err != nil {
		t.Fatal(err)
	}
	cm.Crash()

	p2 := rewrapPool(t, 4, durable)
	installCS(t, p2)
	for i := 0; i < 8; i++ {
		want := bytes.Repeat([]byte{0xB0, byte(i)}, 64)
		if got := readItem(t, p2, storage.BlockNum(i)); !bytes.Equal(got, want) {
			t.Fatalf("block %d item = %x..., want %x...", i, got[:4], want[:4])
		}
	}
}

// A dirty overwrite flushed but not synced must not damage the previously
// synced committed image: after the crash, the old version is intact.
func TestCrashBeforeSyncKeepsCommittedImage(t *testing.T) {
	p, cm, durable := newCrashPool(t, 4, storage.CrashConfig{Seed: 3})
	installCS(t, p)
	writeRelPages(t, p, 6, 0xC0)
	if err := p.FlushRel(storage.Mem, rel); err != nil {
		t.Fatal(err)
	}

	// Overwrite every page in place (the uncommitted mutation)...
	for i := 0; i < 6; i++ {
		f, err := p.Get(Tag{SM: storage.Mem, Rel: rel, Blk: storage.BlockNum(i)})
		if err != nil {
			t.Fatal(err)
		}
		f.LockContent()
		f.Page().Init(0)
		if _, err := f.Page().AddItem(bytes.Repeat([]byte{0xDD, byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
		f.UnlockContent()
		f.MarkDirty()
		f.Release()
	}
	// ...write it back into the volatile cache, then crash before Sync.
	writeBackAll(t, p)
	cm.Crash()

	p2 := rewrapPool(t, 4, durable)
	installCS(t, p2)
	for i := 0; i < 6; i++ {
		want := bytes.Repeat([]byte{0xC0, byte(i)}, 64)
		if got := readItem(t, p2, storage.BlockNum(i)); !bytes.Equal(got, want) {
			t.Fatalf("block %d exposed partial flush: got %x..., want %x...", i, got[:4], want[:4])
		}
	}
}

// A crash in the middle of Sync leaves a block-aligned prefix of the new
// version; every durable block must be wholly old or wholly new — the
// checksum rejects anything in between — and never a mix within one page.
func TestCrashMidSyncBlocksAreAtomic(t *testing.T) {
	p, cm, durable := newCrashPool(t, 4, storage.CrashConfig{Seed: 4})
	installCS(t, p)
	writeRelPages(t, p, 6, 0xE0)
	if err := p.FlushRel(storage.Mem, rel); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		f, err := p.Get(Tag{SM: storage.Mem, Rel: rel, Blk: storage.BlockNum(i)})
		if err != nil {
			t.Fatal(err)
		}
		f.LockContent()
		f.Page().Init(0)
		if _, err := f.Page().AddItem(bytes.Repeat([]byte{0xF0, byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
		f.UnlockContent()
		f.MarkDirty()
		f.Release()
	}
	writeBackAll(t, p)
	cm.CrashAfter(3) // die on the fourth flushed block inside Sync
	if err := p.FlushRel(storage.Mem, rel); !errors.Is(err, storage.ErrCrashed) {
		t.Fatalf("FlushRel error = %v, want ErrCrashed", err)
	}

	p2 := rewrapPool(t, 4, durable)
	installCS(t, p2)
	sawOld, sawNew := false, false
	for i := 0; i < 6; i++ {
		got := readItem(t, p2, storage.BlockNum(i))
		switch got[0] {
		case 0xE0:
			sawOld = true
		case 0xF0:
			sawNew = true
		default:
			t.Fatalf("block %d holds mixed image %x", i, got[0])
		}
	}
	if !sawOld || !sawNew {
		t.Fatalf("expected a durable prefix mixing versions (old=%v new=%v)", sawOld, sawNew)
	}
}

// A torn block left by a tearing crash must fail the checksum on read, not
// parse as a page.
func TestTornBlockDetectedByChecksum(t *testing.T) {
	p, cm, durable := newCrashPool(t, 4, storage.CrashConfig{Seed: 99, TearWrites: true})
	installCS(t, p)
	writeRelPages(t, p, 2, 0x5A)
	if err := p.FlushRel(storage.Mem, rel); err != nil {
		t.Fatal(err)
	}
	// Overwrite block 1, write it back into the cache, and crash so the
	// in-flight block tears on the durable medium.
	f, err := p.Get(Tag{SM: storage.Mem, Rel: rel, Blk: 1})
	if err != nil {
		t.Fatal(err)
	}
	f.LockContent()
	f.Page().Init(0)
	if _, err := f.Page().AddItem(bytes.Repeat([]byte{0x66, 0x66}, 64)); err != nil {
		t.Fatal(err)
	}
	f.UnlockContent()
	f.MarkDirty()
	f.Release()
	writeBackAll(t, p)
	cm.Crash()
	torn := cm.Torn()
	if torn == nil {
		t.Fatal("tearing crash recorded no torn write")
	}

	p2 := rewrapPool(t, 4, durable)
	installCS(t, p2)
	_, err = p2.Get(Tag{SM: storage.Mem, Rel: rel, Blk: torn.Blk})
	if !errors.Is(err, page.ErrChecksum) {
		t.Fatalf("torn block read error = %v, want page.ErrChecksum", err)
	}
	// The untouched block is still perfectly readable.
	if got := readItem(t, p2, 0); got[0] != 0x5A {
		t.Fatalf("intact block corrupted: %x", got[0])
	}
}

// slottedCS mirrors heap's checksummer; defined here to keep the buffer
// package free of a heap dependency.
type slottedCS struct{}

func (slottedCS) Stamp(img []byte)        { page.Page(img).SetChecksum() }
func (slottedCS) Verify(img []byte) error { return page.Page(img).VerifyChecksum() }
