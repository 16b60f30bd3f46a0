package buffer

// Unit tests for the background I/O engine: writer rounds clean cold dirty
// frames (so foreground evictions find clean victims), gather writes cover
// contiguous runs, asynchronous write errors surface instead of vanishing,
// the WAL flush ceiling holds on the background path, and the prefetcher
// installs pages that turn the next sequential reads into hits without ever
// forcing a write-back of its own.

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"postlob/internal/daemon"
	"postlob/internal/page"
	"postlob/internal/storage"
)

// dirtyBlocks appends n dirty, released blocks to rel through the pool.
func dirtyBlocks(t *testing.T, p *Pool, sm storage.ID, rel storage.RelName, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		f, _, err := p.Rel(sm, rel).NewBlock()
		if err != nil {
			t.Fatal(err)
		}
		f.Page()[0] = byte('A' + i%26)
		f.MarkDirty()
		f.Release()
	}
}

// dirtySpread makes n blocks of rel resident and dirty, each alone in its
// partition and already on the device. A writer round's cold window (the
// coldest quarter of a partition's list, rounded up) then covers every one,
// and no write-back has a gap below it to fill, so what a round writes does
// not depend on where the partition hash puts the blocks. The pool must have
// at least n partitions.
func dirtySpread(t *testing.T, p *Pool, mem *storage.MemManager, n int) {
	t.Helper()
	r := p.Rel(storage.Mem, rel)
	used := make(map[*partition]bool)
	var blks []storage.BlockNum
	for blk := storage.BlockNum(0); len(blks) < n; blk++ {
		if blk > 1<<16 {
			t.Fatalf("found %d partitions of %d for %d blocks", len(blks), len(p.parts), n)
		}
		if part := p.part(r, blk); !used[part] {
			used[part] = true
			blks = append(blks, blk)
		}
	}
	img := make([]byte, page.Size)
	for blk := storage.BlockNum(0); blk <= blks[n-1]; blk++ {
		if err := mem.WriteBlock(rel, blk, img); err != nil {
			t.Fatal(err)
		}
	}
	for i, blk := range blks {
		f, err := r.Get(blk)
		if err != nil {
			t.Fatal(err)
		}
		f.Page()[0] = byte('A' + i)
		f.MarkDirty()
		f.Release()
	}
}

// countDirty walks every partition's lookup table.
func countDirty(p *Pool) int {
	n := 0
	for _, part := range p.parts {
		part.mu.Lock()
		for _, f := range part.lookup {
			if f.dirty.Load() {
				n++
			}
		}
		part.mu.Unlock()
	}
	return n
}

func TestBgWriterRoundCleansColdDirty(t *testing.T) {
	// 16 pages: a round pins at most half the pool, and this test wants the
	// whole 6-frame dirty set cleaned in one round.
	p, mem := newTestPool(t, 16)
	p.StartEngine(EngineConfig{Manual: true})
	defer p.StopEngine()
	if err := mem.Create(rel); err != nil {
		t.Fatal(err)
	}
	dirtyBlocks(t, p, storage.Mem, rel, 6)
	if got := countDirty(p); got != 6 {
		t.Fatalf("dirty before round = %d, want 6", got)
	}
	batches := obsBgBatches.Load()
	written, err := p.BgWriterRound(0)
	if err != nil {
		t.Fatal(err)
	}
	if written != 6 {
		t.Fatalf("round wrote %d pages, want 6", written)
	}
	if got := countDirty(p); got != 0 {
		t.Fatalf("dirty after round = %d, want 0", got)
	}
	// The six blocks are contiguous, so the round coalesced at least one
	// gather batch.
	if obsBgBatches.Load() == batches {
		t.Fatal("contiguous dirty run produced no gather batch")
	}
	// The images reached the device.
	buf := make([]byte, page.Size)
	for i := 0; i < 6; i++ {
		if err := mem.ReadBlock(rel, storage.BlockNum(i), buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte('A'+i) {
			t.Fatalf("device block %d = %q, want %q", i, buf[0], byte('A'+i))
		}
	}
}

func TestBgWriterKeepsForegroundEvictionsClean(t *testing.T) {
	// 8 pages: each 3-frame burst fits under the round's half-pool pin cap,
	// so one round per burst keeps every eviction victim clean.
	p, mem := newTestPool(t, 8)
	p.StartEngine(EngineConfig{Manual: true})
	defer p.StopEngine()
	if err := mem.Create(rel); err != nil {
		t.Fatal(err)
	}
	dirtyFg := obsEvictDirty.Load()
	// Fill the pool with dirty pages, run a writer round between bursts the
	// way the clock tick would, and keep allocating: every eviction should
	// find a clean victim.
	for burst := 0; burst < 6; burst++ {
		dirtyBlocks(t, p, storage.Mem, rel, 3)
		if _, err := p.BgWriterRound(0); err != nil {
			t.Fatal(err)
		}
	}
	if got := obsEvictDirty.Load() - dirtyFg; got != 0 {
		t.Fatalf("foreground path hit %d dirty victims; the writer should have kept victims clean", got)
	}
}

func TestBgWriterRoundCapsPinsAtHalfPool(t *testing.T) {
	// A round holds its pins for the whole batch write; over a fully dirty
	// small pool an uncapped round would pin every frame and starve
	// foreground allocation ("all frames pinned") until the batch lands.
	p, mem := newTestPool(t, 4)
	p.StartEngine(EngineConfig{Manual: true})
	defer p.StopEngine()
	if err := mem.Create(rel); err != nil {
		t.Fatal(err)
	}
	dirtySpread(t, p, mem, 4)
	written, err := p.BgWriterRound(0)
	if err != nil {
		t.Fatal(err)
	}
	if written != 2 {
		t.Fatalf("round over a fully dirty 4-page pool wrote %d, want 2 (half the pool)", written)
	}
	if got := countDirty(p); got != 2 {
		t.Fatalf("dirty after capped round = %d, want 2", got)
	}
}

// pinWatchMgr calls onWrite at every device write, while the write-back's
// pins are held.
type pinWatchMgr struct {
	storage.Manager
	onWrite func()
}

func (m *pinWatchMgr) WriteBlocks(rel storage.RelName, blk storage.BlockNum, bufs [][]byte) error {
	m.onWrite()
	return m.Manager.WriteBlocks(rel, blk, bufs)
}

// countPinned walks every partition's lookup table.
func countPinned(p *Pool) int {
	n := 0
	for _, part := range p.parts {
		part.mu.Lock()
		for _, f := range part.lookup {
			if f.pins > 0 {
				n++
			}
		}
		part.mu.Unlock()
	}
	return n
}

// A run that starts past the device's end also pins the resident frames in
// the gap below it (pinGap), for the same gather write; those pins count
// against the round's half-pool cap too. Every partition holds two dirty
// frames, a low block and a colder high one, so the round collects exactly
// the high blocks whatever the partition hash, and every low block lies in
// the gap below the first of them.
func TestBgWriterRoundCapsGapPinsAtHalfPool(t *testing.T) {
	mem := storage.NewMemManager(storage.DeviceModel{}, nil)
	pm := &pinWatchMgr{Manager: mem, onWrite: func() {}}
	sw := storage.NewSwitch()
	sw.Register(storage.Mem, pm)
	const frames = 32
	p := NewPool(frames, sw, nil)
	if 2*len(p.parts) != frames {
		t.Fatalf("%d frames over %d partitions, want two a partition", frames, len(p.parts))
	}
	r := p.Rel(storage.Mem, rel)
	onePerPartition := func(from storage.BlockNum) []storage.BlockNum {
		used := make(map[*partition]bool)
		var blks []storage.BlockNum
		for blk := from; len(blks) < len(p.parts); blk++ {
			if part := p.part(r, blk); !used[part] {
				used[part] = true
				blks = append(blks, blk)
			}
		}
		return blks
	}
	low := onePerPartition(0)
	high := onePerPartition(low[len(low)-1] + 1)
	if err := mem.Create(rel); err != nil {
		t.Fatal(err)
	}
	img := make([]byte, page.Size)
	for blk := storage.BlockNum(0); blk <= high[len(high)-1]; blk++ {
		if err := mem.WriteBlock(rel, blk, img); err != nil {
			t.Fatal(err)
		}
	}
	// The high blocks first: each partition's colder frame is its high one.
	for _, blk := range append(high, low...) {
		f, err := r.Get(blk)
		if err != nil {
			t.Fatal(err)
		}
		f.Page()[0] = 1
		f.MarkDirty()
		f.Release()
	}
	// The device loses the relation's blocks, so every run starts past its
	// end.
	if err := mem.Unlink(rel); err != nil {
		t.Fatal(err)
	}
	if err := mem.Create(rel); err != nil {
		t.Fatal(err)
	}
	maxPinned := 0
	pm.onWrite = func() { maxPinned = max(maxPinned, countPinned(p)) }
	if _, err := p.BgWriterRound(0); err != nil {
		t.Fatal(err)
	}
	if maxPinned > frames/2 {
		t.Fatalf("a writer round held %d of %d frames pinned, want at most half", maxPinned, frames)
	}
	if maxPinned == 0 {
		t.Fatal("the round wrote nothing")
	}
}

func TestBgWriterErrorSurfacesAndFramesStayDirty(t *testing.T) {
	sw := storage.NewSwitch()
	fault := storage.NewFaultManager(storage.NewMemManager(storage.DeviceModel{}, nil))
	sw.Register(storage.Mem, fault)
	p := NewPool(8, sw, nil)
	p.StartEngine(EngineConfig{Manual: true})
	defer p.StopEngine()
	if err := fault.Create(rel); err != nil {
		t.Fatal(err)
	}
	dirtyBlocks(t, p, storage.Mem, rel, 4)

	fault.FailWrites(true)
	if _, err := p.BgWriterRound(0); err == nil {
		t.Fatal("round succeeded against a failing device")
	}
	if got := countDirty(p); got != 4 {
		t.Fatalf("dirty after failed round = %d, want 4 (failed frames must stay dirty)", got)
	}
	// The async error is sticky until surfaced — this is what the checkpoint
	// path reads so background failures never vanish.
	err := p.TakeBackgroundError()
	if !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("TakeBackgroundError = %v, want injected fault", err)
	}
	if p.TakeBackgroundError() != nil {
		t.Fatal("background error reported twice")
	}

	// Heal and retry: the same frames drain cleanly.
	fault.Heal()
	written, err := p.BgWriterRound(0)
	if err != nil || written != 4 {
		t.Fatalf("round after heal wrote %d, %v", written, err)
	}
	if got := countDirty(p); got != 0 {
		t.Fatalf("dirty after heal = %d, want 0", got)
	}
}

func TestBgWriterHonorsWALCeiling(t *testing.T) {
	pool, _, om := newWALPool(t, 8)
	pool.StartEngine(EngineConfig{Manual: true})
	defer pool.StopEngine()
	const drel = storage.RelName("t")
	dirtyBlock(t, pool, drel, 'x')
	dirtyBlock(t, pool, drel, 'y')
	if _, err := pool.BgWriterRound(0); err != nil {
		t.Fatal(err)
	}
	// Device ordering: the log segment must be written and synced before the
	// data relation's home-location write — the flush ceiling, honored off
	// the foreground path.
	events := om.snapshot()
	dataWrite := -1
	logSync := -1
	for i, ev := range events {
		if ev == "write:"+string(drel) && dataWrite == -1 {
			dataWrite = i
		}
		if strings.HasPrefix(ev, "sync:pg_wal") && logSync == -1 {
			logSync = i
		}
	}
	if dataWrite == -1 {
		t.Fatal("no data write recorded")
	}
	if logSync == -1 || logSync > dataWrite {
		t.Fatalf("log sync at %d, data write at %d: ceiling violated (events %v)", logSync, dataWrite, events)
	}
}

func TestPrefetchInstallsAndTurnsReadsIntoHits(t *testing.T) {
	p, mem := newTestPool(t, 16)
	p.StartEngine(EngineConfig{Manual: true})
	defer p.StopEngine()
	if err := mem.Create(rel); err != nil {
		t.Fatal(err)
	}
	// Materialise 10 blocks on the device and purge the pool.
	dirtyBlocks(t, p, storage.Mem, rel, 10)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := p.DropRel(storage.Mem, rel); err != nil {
		t.Fatal(err)
	}

	// Touch block 0 (re-priming the pool's length cache), then prefetch the
	// rest of the window and drain it.
	f, err := p.Get(Tag{SM: storage.Mem, Rel: rel, Blk: 0})
	if err != nil {
		t.Fatal(err)
	}
	f.Release()
	installed := obsPfInstalled.Load()
	p.Rel(storage.Mem, rel).Prefetch(1, 8)
	p.DrainPrefetch()
	if got := obsPfInstalled.Load() - installed; got != 8 {
		t.Fatalf("prefetch installed %d pages, want 8", got)
	}

	hits0, misses0 := p.Stats()
	for blk := storage.BlockNum(1); blk <= 8; blk++ {
		g, err := p.Get(Tag{SM: storage.Mem, Rel: rel, Blk: blk})
		if err != nil {
			t.Fatal(err)
		}
		if g.Page()[0] == 0 {
			t.Fatalf("prefetched block %d has zero page", blk)
		}
		g.Release()
	}
	hits1, misses1 := p.Stats()
	if hits1-hits0 != 8 || misses1 != misses0 {
		t.Fatalf("after prefetch: +%d hits +%d misses, want +8 hits +0 misses",
			hits1-hits0, misses1-misses0)
	}
}

// TestPrefetchRunAllocatesNothing reads prefetch windows over a disk
// relation four times the pool, so every window evicts clean frames and
// reads its run from the device in one batch. Once warm, a window allocates
// nothing, a collection between windows included: the run's lists are the
// engine's scratch and the device stages through its own free list.
func TestPrefetchRunAllocatesNothing(t *testing.T) {
	const frames, blocks = 16, 64
	sw := storage.NewSwitch()
	disk, err := storage.NewDiskManager(t.TempDir(), storage.DeviceModel{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	sw.Register(storage.Disk, disk)
	p := NewPool(frames, sw, nil)
	if err := disk.Create(rel); err != nil {
		t.Fatal(err)
	}
	dirtyBlocks(t, p, storage.Disk, rel, blocks)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	p.StartEngine(EngineConfig{Manual: true})
	defer p.StopEngine()

	next := storage.BlockNum(0)
	window := func() {
		p.Rel(storage.Disk, rel).Prefetch(next, PrefetchWindow)
		p.DrainPrefetch()
		next = (next + PrefetchWindow) % blocks
	}
	for i := 0; i < blocks/PrefetchWindow; i++ {
		window()
	}
	installed := obsPfInstalled.Load()
	if got := testing.AllocsPerRun(20, window); got != 0 {
		t.Errorf("a prefetch window allocates %v times", got)
	}
	// Two collections empty a sync.Pool; the windows after them must still
	// find the device's staging buffer. The runtime's own background work
	// after a collection allocates a few small objects, so count bytes.
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		window()
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= page.Size {
			t.Fatalf("a window after a collection allocates %d bytes: the staging buffer was lost", got)
		}
	}
	if got := obsPfInstalled.Load() - installed; got < 25*PrefetchWindow {
		t.Fatalf("prefetch installed %d pages over 26 windows, want at least %d", got, 25*PrefetchWindow)
	}
}

func TestPrefetchContentMatchesDevice(t *testing.T) {
	p, mem := newTestPool(t, 16)
	p.StartEngine(EngineConfig{Manual: true})
	defer p.StopEngine()
	if err := mem.Create(rel); err != nil {
		t.Fatal(err)
	}
	dirtyBlocks(t, p, storage.Mem, rel, 6)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := p.DropRel(storage.Mem, rel); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Rel(storage.Mem, rel).NBlocks(); err != nil {
		t.Fatal(err)
	}
	p.Rel(storage.Mem, rel).Prefetch(0, 6)
	p.DrainPrefetch()
	want := make([]byte, page.Size)
	for blk := storage.BlockNum(0); blk < 6; blk++ {
		if err := mem.ReadBlock(rel, blk, want); err != nil {
			t.Fatal(err)
		}
		f, err := p.Get(Tag{SM: storage.Mem, Rel: rel, Blk: blk})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(f.Page(), want) {
			t.Fatalf("prefetched block %d differs from device image", blk)
		}
		f.Release()
	}
}

func TestPrefetchNeverForcesWriteback(t *testing.T) {
	p, mem := newTestPool(t, 4)
	p.StartEngine(EngineConfig{Manual: true})
	defer p.StopEngine()
	const other = storage.RelName("other")
	if err := mem.Create(rel); err != nil {
		t.Fatal(err)
	}
	if err := mem.Create(other); err != nil {
		t.Fatal(err)
	}
	// Put 8 blocks of "other" on the device, then fill the whole pool with
	// dirty pages of rel.
	for i := 0; i < 8; i++ {
		img := make([]byte, page.Size)
		img[0] = byte(i + 1)
		if err := mem.WriteBlock(other, storage.BlockNum(i), img); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Rel(storage.Mem, other).NBlocks(); err != nil {
		t.Fatal(err)
	}
	dirtyBlocks(t, p, storage.Mem, rel, 4)

	wb := obsWritebacks.Load()
	installed := obsPfInstalled.Load()
	p.Rel(storage.Mem, other).Prefetch(0, 8)
	p.DrainPrefetch()
	if got := obsWritebacks.Load() - wb; got != 0 {
		t.Fatalf("prefetch forced %d write-backs; it must only use clean frames", got)
	}
	if got := obsPfInstalled.Load() - installed; got != 0 {
		t.Fatalf("prefetch installed %d pages into an all-dirty pool, want 0", got)
	}
	if got := countDirty(p); got != 4 {
		t.Fatalf("dirty frames = %d, want 4 untouched", got)
	}
}

func TestPrefetchDiscardsWindowForDroppedRelation(t *testing.T) {
	p, mem := newTestPool(t, 8)
	p.StartEngine(EngineConfig{Manual: true})
	defer p.StopEngine()
	if err := mem.Create(rel); err != nil {
		t.Fatal(err)
	}
	dirtyBlocks(t, p, storage.Mem, rel, 4)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Out of the pool, so the window is posted rather than found resident.
	if err := p.DropRel(storage.Mem, rel); err != nil {
		t.Fatal(err)
	}
	posted := obsPfPosted.Load()
	p.Rel(storage.Mem, rel).Prefetch(0, 4)
	if obsPfPosted.Load() == posted {
		t.Fatal("the window over an evicted relation was not posted")
	}
	// The relation is dropped (and unlinked) while the window is queued; the
	// drain must not resurrect ghost pages.
	if err := p.Unlink(storage.Mem, rel); err != nil {
		t.Fatal(err)
	}
	installed := obsPfInstalled.Load()
	p.DrainPrefetch()
	if got := obsPfInstalled.Load() - installed; got != 0 {
		t.Fatalf("prefetch installed %d ghost pages after Unlink", got)
	}
}

// parkPrefetcher swaps the engine's prefetcher for a live loop whose round
// parks until release, and returns once that round is running. From then on
// the loop's Kick reports true exactly when nothing else has kicked it. The
// returned release stops the loop, and the test drains windows itself.
func parkPrefetcher(t *testing.T, p *Pool) (kicked func() bool, release func()) {
	t.Helper()
	e := p.eng.Load()
	running, hold := make(chan struct{}, 1), make(chan struct{})
	l := daemon.Start(func() error {
		select {
		case running <- struct{}{}:
		default:
		}
		<-hold
		return nil
	}, 0)
	l.Kick()
	<-running
	e.prefetcher = l
	return func() bool { return !l.Kick() }, func() {
		close(hold)
		if err := l.Stop(); err != nil {
			t.Error(err)
		}
	}
}

// A window the pool already holds end to end is settled on the poster's
// side: nothing is queued, the prefetcher is not woken, and the skip is
// counted once. A window that runs past the relation's end is clamped to it
// before its last block is checked.
func TestPrefetchSkipsResidentWindow(t *testing.T) {
	p, mem := newTestPool(t, 16)
	p.StartEngine(EngineConfig{Manual: true})
	defer p.StopEngine()
	if err := mem.Create(rel); err != nil {
		t.Fatal(err)
	}
	dirtyBlocks(t, p, storage.Mem, rel, 10)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	kicked, release := parkPrefetcher(t, p)
	defer release()

	posted, resident := obsPfPosted.Load(), obsPfResident.Load()
	p.Rel(storage.Mem, rel).Prefetch(2, PrefetchWindow) // blocks 2..17, clamped to 2..9
	if got := obsPfPosted.Load() - posted; got != 0 {
		t.Errorf("a resident window posted %d times", got)
	}
	if n := len(p.eng.Load().pf); n != 0 {
		t.Errorf("%d windows queued, want none", n)
	}
	if kicked() {
		t.Error("a resident window woke the prefetcher")
	}
	if got := obsPfResident.Load() - resident; got != 1 {
		t.Errorf("buffer.prefetch.resident_windows counted %d, want 1", got)
	}
}

// A window over evicted blocks is posted, wakes the prefetcher, and its
// drain installs every block of it.
func TestPrefetchPostsEvictedWindow(t *testing.T) {
	p, mem := newTestPool(t, 16)
	p.StartEngine(EngineConfig{Manual: true})
	defer p.StopEngine()
	if err := mem.Create(rel); err != nil {
		t.Fatal(err)
	}
	dirtyBlocks(t, p, storage.Mem, rel, 10)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := p.DropRel(storage.Mem, rel); err != nil {
		t.Fatal(err)
	}
	kicked, release := parkPrefetcher(t, p)

	posted, resident, installed := obsPfPosted.Load(), obsPfResident.Load(), obsPfInstalled.Load()
	p.Rel(storage.Mem, rel).Prefetch(1, 8)
	if got := obsPfPosted.Load() - posted; got != 1 {
		t.Errorf("an evicted window posted %d times, want 1", got)
	}
	if !kicked() {
		t.Error("an evicted window did not wake the prefetcher")
	}
	release()
	p.DrainPrefetch()
	if got := obsPfInstalled.Load() - installed; got != 8 {
		t.Errorf("the drain installed %d pages, want 8", got)
	}
	if got := obsPfResident.Load() - resident; got != 0 {
		t.Errorf("buffer.prefetch.resident_windows counted %d for an evicted window", got)
	}
	for blk := storage.BlockNum(1); blk <= 8; blk++ {
		if !p.resident(p.Rel(storage.Mem, rel), blk) {
			t.Errorf("block %d not resident after the drain", blk)
		}
	}
}

func TestEngineAsyncStartStop(t *testing.T) {
	p, mem := newTestPool(t, 8)
	if err := mem.Create(rel); err != nil {
		t.Fatal(err)
	}
	pages := obsBgPages.Load()
	p.StartEngine(EngineConfig{})
	dirtySpread(t, p, mem, 6)
	deadline := time.Now().Add(5 * time.Second)
	for countDirty(p) > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	p.StopEngine()
	if got := countDirty(p); got != 0 {
		t.Fatalf("async writer left %d dirty frames after 5s", got)
	}
	if obsBgPages.Load() == pages {
		t.Fatal("async writer reported no pages written")
	}
	// Stop is idempotent and a second engine can be attached.
	p.StopEngine()
	p.StartEngine(EngineConfig{Manual: true})
	p.StopEngine()
}

func TestFlushAllWritesEverySliceOfEveryRelation(t *testing.T) {
	// More than two slices of one relation and more than one of another, so
	// the flush crosses slice boundaries inside each relation.
	nRel, nOther := 2*checkpointSlicePages+3, checkpointSlicePages+5
	p, mem := newTestPool(t, nRel+nOther)
	if err := mem.Create(rel); err != nil {
		t.Fatal(err)
	}
	const other = storage.RelName("other")
	if err := mem.Create(other); err != nil {
		t.Fatal(err)
	}
	dirtyBlocks(t, p, storage.Mem, rel, nRel)
	dirtyBlocks(t, p, storage.Mem, other, nOther)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got := countDirty(p); got != 0 {
		t.Fatalf("dirty after FlushAll = %d, want 0", got)
	}
	buf := make([]byte, page.Size)
	for _, r := range []struct {
		name storage.RelName
		n    int
	}{{rel, nRel}, {other, nOther}} {
		for i := 0; i < r.n; i++ {
			if err := mem.ReadBlock(r.name, storage.BlockNum(i), buf); err != nil {
				t.Fatalf("device missing %s block %d after FlushAll: %v", r.name, i, err)
			}
			if buf[0] != byte('A'+i%26) {
				t.Fatalf("device %s block %d = %q, want %q", r.name, i, buf[0], byte('A'+i%26))
			}
		}
	}
}
