package buffer

// Tests for relation descriptors: pages keyed by descriptor id, checkpoints
// that sweep the pool once, syncs only of relations written since their
// last sync, handles that outlive a drop, and the one unlink.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"postlob/internal/page"
	"postlob/internal/storage"
	"postlob/internal/wal"
)

// fillRels creates nrels relations of blocks pages each through p and
// writes them out, so every frame is resident and clean.
func fillRels(t testing.TB, p *Pool, mgr storage.Manager, nrels, blocks int) []*Rel {
	t.Helper()
	rels := make([]*Rel, nrels)
	for i := range rels {
		name := storage.RelName(fmt.Sprintf("rel%03d", i))
		if err := mgr.Create(name); err != nil {
			t.Fatal(err)
		}
		rels[i] = p.Rel(storage.Mem, name)
		for b := 0; b < blocks; b++ {
			f, _, err := rels[i].NewBlock()
			if err != nil {
				t.Fatal(err)
			}
			f.Release()
		}
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	return rels
}

func redirty(t testing.TB, r *Rel, blk storage.BlockNum) {
	t.Helper()
	f, err := r.Get(blk)
	if err != nil {
		t.Fatal(err)
	}
	f.LockContent()
	f.Page()[64]++
	f.MarkDirty()
	f.UnlockContent()
	f.Release()
}

// A checkpoint looks at each resident frame at most once, plus once more at
// each dirty page when it pins it: with 64 relations sharing a 2,048-frame
// pool, a FlushAll that swept the pool once per relation would read 64 ×
// 2,048 frames.
func TestFlushAllSweepsPoolOnce(t *testing.T) {
	const nrels, blocks, dirty = 64, 32, 10
	frames := nrels * blocks
	p, m := newBlockWritePool(t, frames)
	rels := fillRels(t, p, m, nrels, blocks)
	for i := 0; i < dirty; i++ {
		redirty(t, rels[i*7%nrels], storage.BlockNum(i*3%blocks))
	}
	m.take()
	before := obsFlushScanned.Load()
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got := obsFlushScanned.Load() - before; got > int64(frames+dirty) {
		t.Fatalf("FlushAll read %d frames, want at most %d resident frames + %d dirty pages", got, frames, dirty)
	}
	writes, syncs := m.take()
	if writes != dirty || len(syncs) != dirty {
		t.Fatalf("FlushAll wrote %d pages and synced %d relations, want %d and %d", writes, len(syncs), dirty, dirty)
	}
	if n, err := p.CheckDirtyCounts(); err != nil || n != 0 {
		t.Fatalf("after FlushAll: %d dirty frames, %v", n, err)
	}
	if err := p.CheckRelDirtyCounts(); err != nil {
		t.Fatal(err)
	}
	// Nothing dirty: the sweep passes every partition by.
	before = obsFlushScanned.Load()
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got := obsFlushScanned.Load() - before; got != 0 {
		t.Fatalf("FlushAll over a clean pool read %d frames, want 0", got)
	}
}

// A checkpoint writes every page that was dirty when it began, however many
// other frames of the same partition are dirtied while its sweep walks the
// partition: MarkDirty needs only a pin, so the partition's dirty count read
// at the start of the walk cannot tell it when it has seen them all.
func TestFlushAllUnderConcurrentDirtying(t *testing.T) {
	const frames = 256
	p, m := newBlockWritePool(t, frames)
	r := p.Rel(storage.Mem, rel)
	held := make([]*Frame, frames)
	for i := range held {
		f, _, err := r.NewBlock()
		if err != nil {
			t.Fatal(err)
		}
		held[i] = f
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// a is block 0; the others are the rest of its partition, dirtied over
	// and over while the checkpoints run.
	a := held[0]
	var others []*Frame
	for _, f := range held[1:] {
		if f.part == a.part {
			others = append(others, f)
		}
	}
	if len(others) < 4 {
		t.Fatalf("block 0's partition holds %d other frames, want a few", len(others))
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			for _, f := range others {
				f.LockContent()
				f.Page()[64]++
				f.MarkDirty()
				f.UnlockContent()
			}
		}
	}()
	rounds := 400
	if testing.Short() {
		rounds = 100
	}
	for i := 0; i < rounds; i++ {
		a.LockContent()
		a.Page()[64]++
		a.MarkDirty()
		a.UnlockContent()
		before := m.writes(0)
		if err := p.FlushAll(); err != nil {
			t.Fatal(err)
		}
		if got := m.writes(0) - before; got != 1 {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("round %d: checkpoint wrote block 0, dirty before it began, %d times, want 1", i, got)
		}
	}
	stop.Store(true)
	wg.Wait()
	for _, f := range held {
		f.Release()
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckRelDirtyCounts(); err != nil {
		t.Fatal(err)
	}
}

// A relation is synced by a flush only when something was written to it
// since its last sync: a second checkpoint, or the one a close takes right
// after a checkpoint, writes and syncs nothing.
func TestFlushSyncsOnlyWrittenRelations(t *testing.T) {
	p, m := newBlockWritePool(t, 64)
	rels := fillRels(t, p, m, 4, 4)
	if _, syncs := m.take(); len(syncs) != 4 {
		t.Fatalf("first checkpoint synced %v, want all 4 relations", syncs)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if writes, syncs := m.take(); writes != 0 || len(syncs) != 0 {
		t.Fatalf("checkpoint after a checkpoint wrote %d pages and synced %v, want nothing", writes, syncs)
	}
	redirty(t, rels[2], 1)
	if err := p.FlushRel(storage.Mem, rels[1].Name()); err != nil {
		t.Fatal(err)
	}
	if writes, syncs := m.take(); writes != 0 || len(syncs) != 0 {
		t.Fatalf("flush of an unwritten relation wrote %d pages and synced %v, want nothing", writes, syncs)
	}
	// A page written back outside a checkpoint (here by an eviction of the
	// relation) is not dirty at the checkpoint, yet the checkpoint must
	// still sync its relation.
	if err := p.DropRel(storage.Mem, rels[2].Name()); err != nil {
		t.Fatal(err)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	writes, syncs := m.take()
	if writes != 1 || len(syncs) != 1 || syncs[rels[2].Name()] != 1 {
		t.Fatalf("checkpoint after an eviction's write-back: %d writes (want 1, the eviction's), syncs %v (want %s once)", writes, syncs, rels[2].Name())
	}
}

// A handle whose relation was dropped gets an error, and never a page of a
// relation created later under the same name.
func TestDroppedRelationHandle(t *testing.T) {
	p, mem := newTestPool(t, 16)
	if err := mem.Create(rel); err != nil {
		t.Fatal(err)
	}
	old := p.Rel(storage.Mem, rel)
	for i := 0; i < 2; i++ {
		f, _, err := old.NewBlock()
		if err != nil {
			t.Fatal(err)
		}
		f.Page()[0] = 'A'
		f.MarkDirty()
		f.Release()
	}
	if err := p.Unlink(storage.Mem, rel); err != nil {
		t.Fatal(err)
	}
	if err := mem.Create(rel); err != nil {
		t.Fatal(err)
	}
	cur := p.Rel(storage.Mem, rel)
	if cur == old || !old.Dropped() || cur.Dropped() {
		t.Fatalf("the name resolved to the dropped descriptor (same %v, dropped %v/%v)", cur == old, old.Dropped(), cur.Dropped())
	}
	f, blk, err := cur.NewBlock()
	if err != nil || blk != 0 {
		t.Fatalf("NewBlock on the new relation = block %d, %v", blk, err)
	}
	f.Page()[0] = 'B'
	f.MarkDirty()
	f.Release()

	if _, err := old.Get(0); !errors.Is(err, ErrDropped) {
		t.Fatalf("old handle Get(0) = %v, want ErrDropped", err)
	}
	if _, err := old.NBlocks(); !errors.Is(err, ErrDropped) {
		t.Fatalf("old handle NBlocks = %v, want ErrDropped", err)
	}
	if _, _, err := old.NewBlock(); !errors.Is(err, ErrDropped) {
		t.Fatalf("old handle NewBlock = %v, want ErrDropped", err)
	}
	for _, get := range []func() (*Frame, error){
		func() (*Frame, error) { return cur.Get(0) },
		func() (*Frame, error) { return p.Get(Tag{SM: storage.Mem, Rel: rel, Blk: 0}) },
	} {
		f, err := get()
		if err != nil {
			t.Fatal(err)
		}
		if c := f.Page()[0]; c != 'B' {
			t.Fatalf("new relation's block 0 holds %q, want 'B'", c)
		}
		f.Release()
	}
	if _, err := cur.Get(1); !errors.Is(err, storage.ErrBadBlock) {
		t.Fatalf("new relation's block 1 = %v, want ErrBadBlock: it never had one", err)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if n, _ := mem.NBlocks(rel); n != 1 {
		t.Fatalf("device holds %d blocks of the new relation, want 1", n)
	}
	if err := p.CheckRelDirtyCounts(); err != nil {
		t.Fatal(err)
	}
}

// An allocation that finds every frame pinned waits for a caller to release
// one instead of failing at once.
func TestAllocWaitsForRelease(t *testing.T) {
	p, mem := newTestPool(t, 1)
	if err := mem.Create(rel); err != nil {
		t.Fatal(err)
	}
	r := p.Rel(storage.Mem, rel)
	f, _, err := r.NewBlock()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		g, _, err := r.NewBlock()
		if err == nil {
			g.Release()
		}
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	f.Release()
	if err := <-done; err != nil {
		t.Fatalf("NewBlock with the only frame released meanwhile: %v", err)
	}
}

// An allocation waiting for a frame takes one put on the free list at once,
// rather than sleeping out the wait bound.
func TestAllocWaitsForFreeFrame(t *testing.T) {
	p, mem := newTestPool(t, 1)
	if err := mem.Create(rel); err != nil {
		t.Fatal(err)
	}
	r := p.Rel(storage.Mem, rel)
	f, _, err := r.NewBlock()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		g, _, err := r.NewBlock()
		if err == nil {
			g.Release()
		}
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	// What a lost install race or a failed read hands back.
	p.putFree(&Frame{pool: p, data: make(page.Page, page.Size)})
	if err := <-done; err != nil {
		t.Fatalf("NewBlock with a frame freed meanwhile: %v", err)
	}
	if d := time.Since(start); d >= pinWaitBound {
		t.Fatalf("NewBlock took %v to find the freed frame, the whole wait bound", d)
	}
}

// BenchmarkGetHit reads a resident page through its descriptor.
func BenchmarkGetHit(b *testing.B) {
	p, m := newBlockWritePool(b, 64)
	rels := fillRels(b, p, m, 4, 16)
	r := rels[1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := r.Get(storage.BlockNum(i & 15))
		if err != nil {
			b.Fatal(err)
		}
		f.Release()
	}
}

// BenchmarkFlushAllClean runs checkpoints over a clean, fully resident
// 24,576-frame pool of 256 relations, the shape of the scan_hot workload.
// The frames are installed directly, without page buffers, as in
// BenchmarkBgWriterIdleRound: a clean checkpoint never looks at page bytes.
func BenchmarkFlushAllClean(b *testing.B) {
	const nrels, frames = 256, 24576
	p, m := newBlockWritePool(b, frames)
	for i := 0; i < nrels; i++ {
		name := storage.RelName(fmt.Sprintf("rel%03d", i))
		if err := m.Create(name); err != nil {
			b.Fatal(err)
		}
		r := p.Rel(storage.Mem, name)
		for blk := storage.BlockNum(0); blk < frames/nrels; blk++ {
			key := r.key(blk)
			part := p.part(r, blk)
			f := &Frame{pool: p, part: part, rel: r, blk: blk}
			part.lookup[key] = f
			part.lru.pushFrontLocked(f)
		}
	}
	if err := p.FlushAll(); err != nil { // the first sync of each relation
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.FlushAll(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestUnlinkWaitsOutReaderPin: Unlink waits for a reader's pin released
// within the bound; a pin held past it fails the unlink with ErrPinned and
// leaves the relation in place. With a log attached it appends exactly one
// unlink record, and with the log open but not attached (crash recovery, a
// replica) none.
func TestUnlinkWaitsOutReaderPin(t *testing.T) {
	pinned := func(t *testing.T, p *Pool, mgr storage.Manager) *Frame {
		t.Helper()
		if err := mgr.Create(rel); err != nil {
			t.Fatal(err)
		}
		dirtyBlocks(t, p, storage.Mem, rel, 2)
		f, err := p.Rel(storage.Mem, rel).Get(1)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	t.Run("released", func(t *testing.T) {
		p, mem := newTestPool(t, 8)
		f := pinned(t, p, mem)
		old := p.Rel(storage.Mem, rel)
		released := make(chan struct{}, 1)
		go func() {
			time.Sleep(20 * time.Millisecond)
			released <- struct{}{}
			f.Release()
		}()
		if err := p.Unlink(storage.Mem, rel); err != nil {
			t.Fatalf("Unlink with a pin released mid-wait: %v", err)
		}
		select {
		case <-released:
		default:
			t.Fatal("Unlink returned while the pin was held")
		}
		if mem.Exists(rel) || !old.Dropped() {
			t.Fatalf("after Unlink: storage exists %v, descriptor dropped %v", mem.Exists(rel), old.Dropped())
		}
	})

	t.Run("held", func(t *testing.T) {
		p, mem := newTestPool(t, 8)
		f := pinned(t, p, mem)
		defer f.Release()
		start := time.Now()
		err := p.Unlink(storage.Mem, rel)
		if !errors.Is(err, ErrPinned) {
			t.Fatalf("Unlink with a pin held past the bound = %v, want ErrPinned", err)
		}
		if waited := time.Since(start); waited < pinWaitBound {
			t.Fatalf("Unlink gave up after %v, before the %v bound", waited, pinWaitBound)
		}
		if !mem.Exists(rel) || p.Rel(storage.Mem, rel).Dropped() {
			t.Fatal("a refused Unlink removed the relation")
		}
		if f.Page()[0] != 'B' {
			t.Fatalf("pinned page changed under a refused Unlink: %q", f.Page()[0])
		}
	})

	for _, attached := range []bool{true, false} {
		t.Run(fmt.Sprintf("log/attached=%v", attached), func(t *testing.T) {
			mem := storage.NewMemManager(storage.DeviceModel{}, nil)
			sw := storage.NewSwitch()
			sw.Register(storage.Mem, mem)
			p := NewPool(8, sw, nil)
			log, err := wal.Open(mem, wal.Config{SegBlocks: 8})
			if err != nil {
				t.Fatal(err)
			}
			if attached {
				p.AttachWAL(log)
			}
			pinned(t, p, mem).Release()
			if err := p.Unlink(storage.Mem, rel); err != nil {
				t.Fatal(err)
			}
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}
			log, err = wal.Open(mem, wal.Config{SegBlocks: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer log.Close()
			unlinks := 0
			err = log.Replay(func(r *wal.Record) error {
				if r.Type == wal.TypeUnlink && r.SM == storage.Mem && r.Rel == rel {
					unlinks++
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			if attached {
				want = 1
			}
			if unlinks != want {
				t.Fatalf("log holds %d unlink records of %s, want %d", unlinks, rel, want)
			}
		})
	}
}

// parkWriteMgr parks the next device write once park is set, until release
// is closed, and records every completed write and sync in order.
type parkWriteMgr struct {
	storage.Manager
	park    atomic.Bool
	parked  chan struct{}
	release chan struct{}
	mu      sync.Mutex
	events  []string
}

func (m *parkWriteMgr) note(ev string) {
	m.mu.Lock()
	m.events = append(m.events, ev)
	m.mu.Unlock()
}

func (m *parkWriteMgr) WriteBlock(rel storage.RelName, blk storage.BlockNum, buf []byte) error {
	return m.WriteBlocks(rel, blk, [][]byte{buf})
}

func (m *parkWriteMgr) WriteBlocks(rel storage.RelName, blk storage.BlockNum, bufs [][]byte) error {
	if m.park.CompareAndSwap(true, false) {
		close(m.parked)
		<-m.release
	}
	err := m.Manager.WriteBlocks(rel, blk, bufs)
	m.note("write:" + string(rel))
	return err
}

func (m *parkWriteMgr) Sync(rel storage.RelName) error {
	m.note("sync:" + string(rel))
	return m.Manager.Sync(rel)
}

// TestFlushAllSyncsInFlightWriteBack: a writer round has cleared a page's
// dirty bit and is at the device when a checkpoint sweeps the pool, so the
// sweep finds the page clean. The checkpoint must still drain that write
// and sync the relation; passing the relation by lets its redo point pass a
// page that is on no durable medium (the replica sweep's lost index and
// chunk pages).
func TestFlushAllSyncsInFlightWriteBack(t *testing.T) {
	m := &parkWriteMgr{
		Manager: storage.NewMemManager(storage.DeviceModel{}, nil),
		parked:  make(chan struct{}),
		release: make(chan struct{}),
	}
	sw := storage.NewSwitch()
	sw.Register(storage.Mem, m)
	p := NewPool(8, sw, nil)
	if err := m.Create(rel); err != nil {
		t.Fatal(err)
	}
	dirtyBlocks(t, p, storage.Mem, rel, 1)
	if err := p.FlushAll(); err != nil { // the relation is synced and clean
		t.Fatal(err)
	}
	f, err := p.Rel(storage.Mem, rel).Get(0)
	if err != nil {
		t.Fatal(err)
	}
	f.LockContent()
	f.Page()[1] = 'x'
	f.MarkDirty()
	f.UnlockContent()
	f.Release()

	m.park.Store(true)
	round := make(chan error, 1)
	go func() {
		_, err := p.BgWriterRound(8)
		round <- err
	}()
	<-m.parked
	flushed := make(chan error, 1)
	go func() { flushed <- p.FlushAll() }()
	select {
	case err := <-flushed:
		close(m.release)
		<-round
		t.Fatalf("FlushAll returned (%v) while a write-back of %s was in flight", err, rel)
	case <-time.After(50 * time.Millisecond):
		// Draining the write, as it must; let the write land.
	}
	close(m.release)
	if err := <-round; err != nil {
		t.Fatal(err)
	}
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := len(m.events); n < 2 || m.events[n-2] != "write:"+string(rel) || m.events[n-1] != "sync:"+string(rel) {
		t.Fatalf("device events %v: want the parked write, then a sync of %s", m.events, rel)
	}
}
