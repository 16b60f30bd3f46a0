package buffer

// Tests that a page reaches the device once per stretch of changes: writer
// rounds leave frames in the warm part of their lists dirty, relation
// extension writes the gap below a page with the gap's own pages instead of
// zeros, and evictions from a clean pool wake no writer.

import (
	"sync"
	"testing"

	"postlob/internal/storage"
)

// blockWriteMgr counts device block writes, per block and in total, and
// syncs per relation.
type blockWriteMgr struct {
	storage.Manager
	mu     sync.Mutex
	blocks map[storage.BlockNum]int
	total  int
	syncs  map[storage.RelName]int
}

func newBlockWritePool(t testing.TB, frames int) (*Pool, *blockWriteMgr) {
	t.Helper()
	m := &blockWriteMgr{
		Manager: storage.NewMemManager(storage.DeviceModel{}, nil),
		blocks:  map[storage.BlockNum]int{},
		syncs:   map[storage.RelName]int{},
	}
	sw := storage.NewSwitch()
	sw.Register(storage.Mem, m)
	if err := m.Create(rel); err != nil {
		t.Fatal(err)
	}
	return NewPool(frames, sw, nil), m
}

func (m *blockWriteMgr) WriteBlock(rel storage.RelName, blk storage.BlockNum, buf []byte) error {
	return m.WriteBlocks(rel, blk, [][]byte{buf})
}

func (m *blockWriteMgr) WriteBlocks(rel storage.RelName, blk storage.BlockNum, bufs [][]byte) error {
	m.mu.Lock()
	for i := range bufs {
		m.blocks[blk+storage.BlockNum(i)]++
	}
	m.total += len(bufs)
	m.mu.Unlock()
	return m.Manager.WriteBlocks(rel, blk, bufs)
}

func (m *blockWriteMgr) Sync(rel storage.RelName) error {
	m.mu.Lock()
	m.syncs[rel]++
	m.mu.Unlock()
	return m.Manager.Sync(rel)
}

// take returns the block writes and the syncs by relation since the last
// take, and resets both.
func (m *blockWriteMgr) take() (int, map[storage.RelName]int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	w, s := m.total, m.syncs
	m.total, m.syncs = 0, map[storage.RelName]int{}
	return w, s
}

func (m *blockWriteMgr) writes(blk storage.BlockNum) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.blocks[blk]
}

// A frame dirtied again between rounds, and so kept in the warm part of its
// list, is left to the checkpoint: no round writes it, and FlushAll writes it
// once.
func TestBgWriterLeavesHotFramesDirty(t *testing.T) {
	p, dev := newBlockWritePool(t, 64)
	p.StartEngine(EngineConfig{Manual: true})
	defer p.StopEngine()
	dirtyBlocks(t, p, storage.Mem, rel, 64)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// A block whose partition lists at least two frames, so the front of
	// the list is outside its coldest quarter.
	var hot Tag
	for blk := storage.BlockNum(0); ; blk++ {
		hot = Tag{SM: storage.Mem, Rel: rel, Blk: blk}
		if len(partitionTags(p.part(p.Rel(hot.SM, hot.Rel), hot.Blk))) >= 2 {
			break
		}
	}
	before := dev.writes(hot.Blk)
	for round := 0; round < 20; round++ {
		f, err := p.Get(hot)
		if err != nil {
			t.Fatal(err)
		}
		f.LockContent()
		f.Page()[100] = byte(round)
		f.MarkDirty()
		f.UnlockContent()
		f.Release()
		if _, err := p.BgWriterRound(0); err != nil {
			t.Fatal(err)
		}
	}
	if got := dev.writes(hot.Blk) - before; got != 0 {
		t.Fatalf("writer rounds wrote the hot block %d times, want 0", got)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got := dev.writes(hot.Blk) - before; got != 1 {
		t.Fatalf("hot block written %d times after FlushAll, want 1", got)
	}
}

// Appending far more pages than the pool holds, with no engine, sends each
// block to the device exactly once: an eviction past the device's end takes
// the gap's own dirty pages along instead of writing zeros there first.
func TestExtensionWritesEachBlockOnce(t *testing.T) {
	const pages = 512
	p, dev := newBlockWritePool(t, 64)
	zeros := obsZeroFill.Load()
	dirtyBlocks(t, p, storage.Mem, rel, pages)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if dev.total != pages {
		t.Fatalf("appending %d pages wrote %d blocks, want %d", pages, dev.total, pages)
	}
	if got := obsZeroFill.Load() - zeros; got != 0 {
		t.Fatalf("appending %d pages wrote %d zero blocks, want 0", pages, got)
	}
	if n, err := dev.NBlocks(rel); err != nil || n != pages {
		t.Fatalf("device holds %d blocks (%v), want %d", n, err, pages)
	}
}

// A read-only pass that evicts on nearly every read, over a pool with
// nothing dirty, never wakes the background writer.
func TestIdleEvictionWakesNoWriter(t *testing.T) {
	p, mem := newTestPool(t, 64)
	if err := mem.Create(rel); err != nil {
		t.Fatal(err)
	}
	dirtyBlocks(t, p, storage.Mem, rel, 256)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	p.StartEngine(EngineConfig{})
	defer p.StopEngine()
	wakeups, evictions := obsBgWakeups.Load(), obsEvictions.Load()
	for pass := 0; pass < 2; pass++ {
		for blk := 0; blk < 256; blk++ {
			f, err := p.Get(Tag{SM: storage.Mem, Rel: rel, Blk: storage.BlockNum(blk)})
			if err != nil {
				t.Fatal(err)
			}
			f.Release()
		}
	}
	if got := obsEvictions.Load() - evictions; got < 256 {
		t.Fatalf("the pass evicted %d frames, want at least 256", got)
	}
	if got := obsBgWakeups.Load() - wakeups; got != 0 {
		t.Fatalf("evictions from a clean pool woke the writer %d times, want 0", got)
	}
}
