// Package buffer implements the shared buffer pool that sits between the
// access methods (heap, B-tree) and the storage manager switch. Pages are
// cached in fixed frames with pin counts, LRU replacement of unpinned
// frames, and write-back of dirty pages. The pool also tracks a "virtual"
// relation length so new blocks can be allocated in memory and written out
// lazily, the way POSTGRES extends relations.
//
// A relation is known to the pool by its descriptor (Rel), which the pool
// creates once per relation and access methods hold; a page is keyed by one
// uint64, the descriptor's process-local id and the block number.
//
// Concurrency model: the lookup table, LRU list, and pin counts are sharded
// into lock-striped partitions keyed by a hash of the page key, so readers
// of different pages contend only when their keys collide. Device reads on
// a miss happen with no pool lock held — concurrent misses overlap their
// I/O — and a lost install race simply discards the duplicate read. Each
// frame carries a shared/exclusive content latch: access methods hold it
// exclusive around page-byte mutation and the pool holds it shared while a
// page's bytes are on their way to the device, so a flush never writes a
// torn page. Lock ordering is nbMu → partition mutexes (ascending) →
// relation extension lock (Rel.ext) → frame latch; no code acquires an earlier lock
// while holding a later one, and no pool call is made while a content latch
// is held.
package buffer

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"postlob/internal/obs"
	"postlob/internal/page"
	"postlob/internal/storage"
	"postlob/internal/vclock"
	"postlob/internal/wal"
)

// Process-wide pool metrics (summed across pools; per-pool numbers come from
// Stats). Registered once at package init, as the obsregister analyzer
// requires. Conservation law asserted by the soak and crash harnesses:
// pool.hits + pool.misses == pool.lookups.
var (
	obsLookups    = obs.NewCounter("pool.lookups")
	obsHits       = obs.NewCounter("pool.hits")
	obsMisses     = obs.NewCounter("pool.misses")
	obsEvictions  = obs.NewCounter("pool.evictions")
	obsWritebacks = obs.NewCounter("pool.writebacks")
	obsLatchWaits = obs.NewCounter("pool.latch_waits")
	obsReadLat    = obs.NewTimer("pool.miss_read_latency")
	// obsFlushScanned counts the frames checkpoints, relation flushes and
	// drops look at: a FlushAll reads at most resident frames + dirty pages.
	obsFlushScanned = obs.NewCounter("buffer.flush.frames_scanned")
	// obsDirtyFrames is the sum of every pool's partition ndirty counts.
	obsDirtyFrames = obs.NewGauge("buffer.dirty_frames")
)

// Errors returned by the pool.
var (
	ErrPoolExhausted = errors.New("buffer: all frames pinned")
	ErrPinned        = errors.New("buffer: frame still pinned")
	ErrDropped       = errors.New("buffer: relation dropped")
)

// maxPartitions caps the lock striping; pools smaller than this get one
// partition per frame.
const maxPartitions = 16

// Tag names a disk page the way everything outside the pool does: storage
// manager, relation name, block. The log, base backups and every sort order
// use this form; inside the pool a page is its descriptor's id and block
// (Rel.key).
type Tag struct {
	SM  storage.ID
	Rel storage.RelName
	Blk storage.BlockNum
}

func (t Tag) String() string {
	return fmt.Sprintf("%v:%s:%d", t.SM, t.Rel, t.Blk)
}

// Frame is a pinned buffer holding one page. Callers must Release every
// frame they obtain, and MarkDirty after mutating its page under the
// exclusive content latch.
type Frame struct {
	pool *Pool
	// part is the frame's resident partition. It is written only while the
	// frame is unreferenced (install time) and is stable while pinned, so
	// pin holders may read it without a lock.
	part *partition
	// rel and blk are the page the frame holds, its tag. Like part they are
	// written only while the frame is unreferenced.
	rel      *Rel
	blk      storage.BlockNum
	data     page.Page
	pins     int  // guarded by part.mu
	evicting bool // guarded by part.mu; a write-back holds the only pin
	// inLRU is set iff the frame is unpinned and resident, and so on its
	// partition's LRU list; lruPrev and lruNext are the list's links.
	inLRU            bool   // guarded by part.mu
	lruPrev, lruNext *Frame // guarded by part.mu
	dirty            atomic.Bool
	latch            sync.RWMutex // content latch; see LockContent

	// WAL bookkeeping, meaningful only when the pool has a log attached.
	// walDirty records that the page bytes changed since the last image of
	// this page was appended to the log (the WAL analogue of dirty). It is
	// set under the exclusive content latch and cleared under the shared one,
	// and only once the image is in the log: whoever finds it clear under the
	// latch knows the page's newest state has been appended. walLSN is the end
	// LSN of the newest logged image — the frame's flush ceiling: the page
	// must not replace its home-location bytes until the log is durable
	// through it.
	walDirty atomic.Bool
	walLSN   atomic.Uint64
}

// Page returns the frame's page. The slice is valid while the frame is
// pinned.
func (f *Frame) Page() page.Page { return f.data }

// Tag returns the identity of the page held in the frame.
func (f *Frame) Tag() Tag { return f.rel.tag(f.blk) }

// key is the frame's page-table key.
func (f *Frame) key() uint64 { return f.rel.key(f.blk) }

// MarkDirty records that the page has been modified and must be written back
// before eviction.
func (f *Frame) MarkDirty() {
	f.setDirty(true)
	f.noteWALDirty()
}

// setDirty is the only writer of f.dirty. It keeps the resident partition's
// and the relation's ndirty exact by adjusting them only on a real
// transition, which Swap makes race-free between concurrent setters. The
// caller holds a pin or part.mu, or owns the unreferenced frame it is
// installing (f.part and f.rel already assigned).
// Frames off every partition — the free list, a fresh allocation — are always
// clean, so a frame's count never follows it from one partition to another.
func (f *Frame) setDirty(d bool) {
	if f.dirty.Swap(d) == d {
		return
	}
	n := int64(1)
	if !d {
		n = -1
	}
	f.part.ndirty.Add(n)
	f.rel.ndirty.Add(n)
	obsDirtyFrames.Add(n)
}

// CheckDirtyCounts verifies that every partition's ndirty equals the number
// of its resident frames with dirty set, and returns the pool-wide count.
// The counts are exact only at quiesce — background engine stopped, no
// caller dirtying or writing back a frame — so tests call it there.
func (p *Pool) CheckDirtyCounts() (int64, error) {
	var sum int64
	for i, part := range p.parts {
		part.mu.Lock()
		var n int64
		for _, f := range part.lookup {
			if f.dirty.Load() {
				n++
			}
		}
		got := part.ndirty.Load()
		part.mu.Unlock()
		if got != n {
			return 0, fmt.Errorf("buffer: partition %d counts %d dirty frames, but %d resident frames are dirty", i, got, n)
		}
		sum += n
	}
	return sum, nil
}

// CheckRelDirtyCounts verifies that every descriptor's ndirty equals the
// number of resident frames of its relation with dirty set. Like
// CheckDirtyCounts it is exact only at quiesce.
func (p *Pool) CheckRelDirtyCounts() error {
	counts := make(map[*Rel]int64)
	for _, part := range p.parts {
		part.mu.Lock()
		for _, f := range part.lookup {
			if f.dirty.Load() {
				counts[f.rel]++
			}
		}
		part.mu.Unlock()
	}
	p.nbMu.Lock()
	rels := make([]*Rel, 0, len(p.rels)+len(counts))
	for _, r := range p.rels {
		rels = append(rels, r)
	}
	p.nbMu.Unlock()
	for r := range counts {
		if r.dropped.Load() {
			rels = append(rels, r) // no longer registered, yet holds dirty frames
		}
	}
	for _, r := range rels {
		if got, want := r.ndirty.Load(), counts[r]; got != want {
			return fmt.Errorf("buffer: relation %s counts %d dirty frames, but %d resident frames are dirty", r.name, got, want)
		}
	}
	return nil
}

// noteWALDirty records that the page differs from its last logged image and,
// when that is news, queues the frame on its partition's WAL-dirty list — the
// only place LogDirtyPages looks. The caller holds a pin or part.mu, either
// of which keeps the frame's page and part stable. Without a log nobody drains the lists,
// so only the flag is kept; AttachWAL queues what was flagged before it.
func (f *Frame) noteWALDirty() {
	if !f.walDirty.Swap(true) && f.pool.wal != nil {
		f.part.queueWALDirty(f)
	}
}

// LockContent takes the frame's content latch exclusive. Every code path
// that writes page bytes must hold it for the duration of the mutation
// (ending with MarkDirty), so a concurrent flush never writes a torn page.
// Do not call back into the pool — including Release — while holding it.
func (f *Frame) LockContent() {
	if f.latch.TryLock() {
		return
	}
	obsLatchWaits.Inc()
	f.latch.Lock()
}

// UnlockContent releases the exclusive content latch.
func (f *Frame) UnlockContent() { f.latch.Unlock() }

// RLockContent takes the content latch shared: page bytes are stable until
// RUnlockContent. Readers that tolerate in-place hint-bit style updates may
// skip the latch entirely; readers that require a torn-free view (or that
// run concurrently with in-place updaters) hold it shared.
func (f *Frame) RLockContent() {
	if f.latch.TryRLock() {
		return
	}
	obsLatchWaits.Inc()
	f.latch.RLock()
}

// RUnlockContent releases the shared content latch.
func (f *Frame) RUnlockContent() { f.latch.RUnlock() }

// TryRLockContent takes the shared content latch only if it is immediately
// available, reporting whether it was taken. Callers that want their waits
// attributed to a specific counter (heap's snapshot-read path) try first and
// fall back to RLockContent.
func (f *Frame) TryRLockContent() bool { return f.latch.TryRLock() }

// Release drops one pin. When the last pin is released the frame becomes a
// candidate for replacement. Release panics on a pin-count underflow: a
// frame released more often than it was obtained is always a caller bug,
// and continuing would let the pool evict a page someone still points at.
func (f *Frame) Release() {
	part := f.part
	part.mu.Lock()
	if f.pins <= 0 {
		part.mu.Unlock()
		panic("buffer: Release of unpinned frame " + f.Tag().String())
	}
	f.pins--
	last := f.pins == 0
	if last {
		part.lru.pushFrontLocked(f)
	}
	part.mu.Unlock()
	if last {
		f.pool.noteUnpin()
	}
}

// partition is one lock stripe of the pool: the frames whose keys hash
// here, their lookup table, and their LRU list.
type partition struct {
	mu     sync.Mutex
	lookup map[uint64]*Frame // guarded by mu; keyed by Rel.key
	lru    lruList           // guarded by mu; unpinned frames, front = most recently used
	hits   int64             // guarded by mu
	misses int64             // guarded by mu

	// ndirty counts this partition's resident frames with dirty set, pinned
	// or not. Frame.setDirty maintains it, so the background writer can pass
	// a clean partition by without taking mu.
	ndirty atomic.Int64

	// wdMu guards the WAL-dirty list. It is a leaf: MarkDirty takes it under
	// a frame's content latch and the install paths under mu, and nothing —
	// not mu, not a content latch — is ever acquired while it is held.
	wdMu sync.Mutex
	// wdList names the frames whose walDirty flag went from clear to set
	// since LogDirtyPages last drained the list: every frame of this
	// partition with the flag set is on it (or in the hands of the drain that
	// took it off). Entries go stale when a frame is logged by a write-back,
	// evicted or dropped; the drain filters them under mu by looking the key
	// up again, which is why an entry carries the key the frame had when it
	// was queued.
	wdList []walDirtyEntry // guarded by wdMu
}

type walDirtyEntry struct {
	key uint64
	f   *Frame
}

func (part *partition) queueWALDirty(f *Frame) {
	part.wdMu.Lock()
	part.wdList = append(part.wdList, walDirtyEntry{f.key(), f})
	part.wdMu.Unlock()
}

// pinWALDirty empties the partition's WAL-dirty list and appends to frames,
// pinned, every listed frame that still holds the page it was queued for and
// still awaits logging.
func (part *partition) pinWALDirty(frames []*Frame) []*Frame {
	// mu is held from before the list is taken until its frames are pinned,
	// so no frame is ever off the list, unpinned, and evictable.
	part.mu.Lock()
	defer part.mu.Unlock()
	part.wdMu.Lock()
	taken := part.wdList
	part.wdList = nil
	part.wdMu.Unlock()
	for _, e := range taken {
		if f, ok := part.lookup[e.key]; ok && f == e.f && f.walDirty.Load() {
			part.pinLocked(f)
			frames = append(frames, f)
		}
	}
	// Hand the emptied array back for the next round of queueing, unless a
	// frame was queued meanwhile: a commit drains the list every time, and
	// once chunks stopped allocating, a fresh array per drain was the
	// largest allocation left on the write path.
	clear(taken)
	part.wdMu.Lock()
	if part.wdList == nil {
		part.wdList = taken[:0]
	}
	part.wdMu.Unlock()
	return frames
}

// tryPin returns the resident frame for key with one more pin, or nil.
// A successful pin is counted as a hit while the partition lock is held,
// so Stats can take a snapshot that is consistent across partitions.
func (part *partition) tryPin(key uint64) *Frame {
	part.mu.Lock()
	defer part.mu.Unlock()
	f, ok := part.lookup[key]
	if !ok {
		return nil
	}
	part.hits++
	part.pinLocked(f)
	return f
}

// pinLocked pins a resident frame, removing it from the LRU list.
func (part *partition) pinLocked(f *Frame) {
	if f.pins == 0 && f.inLRU {
		part.lru.removeLocked(f)
	}
	f.pins++
}

// Pool is a fixed-capacity page cache over a storage switch.
type Pool struct {
	sw    *storage.Switch
	clock *vclock.Clock
	cap   int // immutable after NewPool

	partMask uint64
	parts    []*partition

	// allocated counts frames ever created, bounded by cap; the pool's
	// frame budget is global even though the metadata is sharded.
	allocated atomic.Int64

	freeMu sync.Mutex
	free   []*Frame // guarded by freeMu; allocated frames resident nowhere

	// nbMu guards the relation registry and every descriptor's length. It
	// also serialises extension (NewBlock) against a drop and against a
	// prefetched page's install.
	nbMu sync.Mutex
	rels map[relKey]*Rel // guarded by nbMu; live descriptors by name
	// lastID is the id of the newest descriptor. Ids are never reused, so
	// no page key of a dropped relation's descriptor can name a page of a
	// relation created later under the same name; a pool would have to
	// register 2^32 relations to wrap.
	lastID uint32 // guarded by nbMu

	// wal is the attached write-ahead log, nil in force-at-commit and
	// checkpoint-grained durability modes. Set once by AttachWAL before the
	// pool is shared between goroutines, read-only afterwards.
	wal *wal.Log
	// logMu serialises LogDirtyPages. A caller takes frames off the
	// WAL-dirty lists long before it has appended their images; a commit that
	// ran its own pass in between would find the lists empty and put its
	// commit record ahead of pages it depends on.
	logMu sync.Mutex

	evictHand atomic.Uint64 // rotates the partition eviction scan start

	// pinWaiters counts allocations waiting for a pin to be released
	// (waitUnpin); only while it is above zero does a last Release signal
	// unpinned, so a hit pays one atomic load for the wait.
	pinWaiters atomic.Int32
	unpinned   chan struct{} // capacity 1: a pending wakeup

	// Background I/O engine state (see bgwriter.go). eng is nil until
	// StartEngine; bgHand rotates the writer's partition scan independently
	// of the eviction hand.
	eng    atomic.Pointer[engine]
	bgHand atomic.Uint64

	bgErrMu sync.Mutex
	bgErr   error // guarded by bgErrMu; first unsurfaced async write-back error

	// The write-back drain gate. A device write-back signs in (wbBegin)
	// before it clears a frame's dirty bit and signs out (wbEnd) after its
	// device write returns. In between, the page's newest image is invisible
	// to a flush's sweep and not yet guaranteed on the device — so a
	// checkpoint that syncs the relation must first drain it (wbWaitRel), or
	// it could durably advance the redo point past an image that never
	// reached the synced medium, and a crash would lose the page with
	// nothing to replay. Each descriptor counts its own write-backs
	// (Rel.wbInFlight); wbTotal is their sum.
	wbMu    sync.Mutex
	wbCond  *sync.Cond // signalled as in-flight write-backs retire
	wbTotal int        // guarded by wbMu

	// flushScratch is the reusable sweep state of FlushAll and FlushRel. A
	// flush takes it and puts it back, so a checkpoint allocates nothing, and
	// a concurrent flush works on a scratch of its own.
	flushScratch atomic.Pointer[flushScratch]
}

// NewPool creates a pool of nframes pages over the given switch. clock may
// be nil. Panics if nframes < 1: a zero-frame pool cannot make progress and
// only a hardcoded configuration error can ask for one.
func NewPool(nframes int, sw *storage.Switch, clock *vclock.Clock) *Pool {
	if nframes < 1 {
		panic("buffer: pool needs at least one frame")
	}
	nparts := maxPartitions
	for nparts > nframes {
		nparts /= 2
	}
	p := &Pool{
		sw:       sw,
		clock:    clock,
		cap:      nframes,
		partMask: uint64(nparts - 1),
		parts:    make([]*partition, nparts),
		rels:     make(map[relKey]*Rel),
		unpinned: make(chan struct{}, 1),
	}
	p.wbCond = sync.NewCond(&p.wbMu)
	for i := range p.parts {
		p.parts[i] = &partition{lookup: make(map[uint64]*Frame)}
	}
	return p
}

// wbBegin signs a device write-back of r's pages into the drain gate and
// marks r unsynced. Must precede the dirty-bit clear; pair with wbEnd on
// every path. A checkpoint whose sweep finds the page already clean then
// still finds the relation unsynced, so it drains this write and syncs the
// relation: without the mark it would pass the relation by, and its redo
// point would pass a page that is on no durable medium.
func (p *Pool) wbBegin(r *Rel) {
	r.unsynced.Store(true)
	p.wbMu.Lock()
	r.wbInFlight++
	p.wbTotal++
	p.wbMu.Unlock()
}

// wbEnd retires a write-back begun with wbBegin and wakes drain waiters.
func (p *Pool) wbEnd(r *Rel) {
	p.wbMu.Lock()
	r.wbInFlight--
	p.wbTotal--
	p.wbCond.Broadcast()
	p.wbMu.Unlock()
}

// wbWaitRel blocks until no write-back of r's pages is in flight. A
// checkpoint calls it immediately before syncing the relation: any frame
// whose dirty bit a write-back cleared before the checkpoint's own flush
// pass is then guaranteed to have reached the (possibly volatile) device,
// where the sync that follows makes it durable. Write-backs that begin
// after the wait was satisfied carry images logged after the checkpoint's
// redo point, which replay covers.
func (p *Pool) wbWaitRel(r *Rel) {
	p.wbMu.Lock()
	for r.wbInFlight > 0 {
		p.wbCond.Wait()
	}
	p.wbMu.Unlock()
}

// wbWaitAny blocks until some device write-back retires, or returns at
// once when none is in flight.
func (p *Pool) wbWaitAny() {
	p.wbMu.Lock()
	if p.wbTotal > 0 {
		p.wbCond.Wait()
	}
	p.wbMu.Unlock()
}

// part maps r's block blk to its partition: FNV-1a over the relation's name
// and storage manager (Rel.hash, computed once) and the block. The stripe
// depends on the page's name, not on the process-local id, so a seeded
// workload places — and evicts — the same pages the same way in every
// process, however many relations came before it.
func (p *Pool) part(r *Rel, blk storage.BlockNum) *partition {
	return p.parts[((r.hash^uint64(blk))*fnvPrime)&p.partMask]
}

// Switch returns the storage switch the pool reads and writes through.
func (p *Pool) Switch() *storage.Switch { return p.sw }

// AttachWAL couples the pool to a write-ahead log. From then on write-back
// honors the flush-ceiling rule — a page's newest logged image must be
// durable in the log before the page replaces its home-location bytes — and
// pages that reach the device without having been logged (eviction under
// memory pressure) get an image appended first. Call once, after recovery
// and before the pool is shared; attaching mid-flight would let earlier
// unlogged write-backs escape the ceiling.
func (p *Pool) AttachWAL(l *wal.Log) {
	p.wal = l
	// Pages modified before the log existed (a promoted replica's replayed
	// images) were flagged but not queued; queue them now, so the first
	// LogDirtyPages covers them as it always has.
	for _, part := range p.parts {
		part.mu.Lock()
		for _, f := range part.lookup {
			if f.walDirty.Load() {
				part.queueWALDirty(f)
			}
		}
		part.mu.Unlock()
	}
}

// WAL returns the attached write-ahead log, or nil.
func (p *Pool) WAL() *wal.Log { return p.wal }

// Stats returns cache hits and misses since creation. Hit/miss counts live
// in the partitions, incremented under each partition's mutex; Stats holds
// every partition lock (in ascending order, consistent with the pool's lock
// ordering) while summing, so the returned pair is a single atomic snapshot
// — hits and misses from the same instant, not two independently racing
// reads.
func (p *Pool) Stats() (hits, misses int64) {
	// lockorder:allow buffer.partition.mu->buffer.partition.mu — all-partition sweep locks partitions in ascending index order, so concurrent sweeps cannot deadlock
	for _, part := range p.parts {
		part.mu.Lock()
	}
	for _, part := range p.parts {
		hits += part.hits
		misses += part.misses
	}
	for _, part := range p.parts {
		part.mu.Unlock()
	}
	return hits, misses
}

// Capacity returns the number of frames in the pool.
func (p *Pool) Capacity() int { return p.cap }

// Partitions returns the number of lock stripes, for observability.
func (p *Pool) Partitions() int { return len(p.parts) }

// Get pins the frame holding the page identified by tag: the by-name form of
// Rel.Get, for callers that hold no descriptor.
func (p *Pool) Get(tag Tag) (*Frame, error) {
	return p.Rel(tag.SM, tag.Rel).Get(tag.Blk)
}

// ApplyRedoImage installs a physical redo page image: the page write of
// core.Redo, which crash recovery and replication replay share (lobvet's
// walorder analyzer keeps every other caller out). The image lands in the
// pool as a dirty frame, so replica reads see it immediately and the next
// flush or eviction carries it to the device; relation length stays
// coherent because extension goes through NewBlock. Blocks below blk that
// no image has reached yet materialise as zero pages.
func (p *Pool) ApplyRedoImage(sm storage.ID, rel storage.RelName, blk storage.BlockNum, img []byte) error {
	if len(img) != page.Size {
		return fmt.Errorf("buffer: redo image is %d bytes, want %d", len(img), page.Size)
	}
	mgr, err := p.sw.Get(sm)
	if err != nil {
		return err
	}
	if !mgr.Exists(rel) {
		if err := mgr.Create(rel); err != nil {
			return err
		}
	}
	r := p.Rel(sm, rel)
	for {
		n, err := r.NBlocks()
		if err != nil {
			return err
		}
		if blk < n {
			break
		}
		f, bn, err := r.NewBlock()
		if err != nil {
			return err
		}
		if bn == blk {
			f.LockContent()
			copy(f.data, img)
			f.UnlockContent()
			f.Release()
			return nil
		}
		f.Release() // a hole: stays zero until its own image arrives
	}
	// An existing block is overwritten without reading the device: redo is
	// "these bytes, whatever was there" — the home location may hold a torn
	// page the image is about to repair, so a read-verify pass would reject
	// exactly the pages replay exists to fix.
	key := r.key(blk)
	part := p.part(r, blk)
	for {
		if f := part.tryPin(key); f != nil {
			f.LockContent()
			copy(f.data, img)
			f.MarkDirty()
			f.UnlockContent()
			f.Release()
			return nil
		}
		f, err := p.allocFrame()
		if err != nil {
			return err
		}
		copy(f.data, img)
		part.mu.Lock()
		if _, ok := part.lookup[key]; ok {
			// Lost an install race with a concurrent reader; retry the
			// resident path so the overwrite lands in the surviving frame.
			part.mu.Unlock()
			p.putFree(f)
			continue
		}
		f.installLocked(r, blk, part)
		f.pins = 1
		f.setDirty(true)
		f.noteWALDirty()
		part.lookup[key] = f
		part.mu.Unlock()
		f.Release()
		return nil
	}
}

// installLocked gives an unreferenced frame its page and partition and resets its
// state to an unpinned, clean, never-logged page; the caller holds part.mu
// and then pins, dirties and publishes it as the install requires.
func (f *Frame) installLocked(r *Rel, blk storage.BlockNum, part *partition) {
	f.rel, f.blk, f.part = r, blk, part
	f.pins = 0
	f.evicting = false
	f.setDirty(false)
	f.walDirty.Store(false)
	f.walLSN.Store(0)
}

// allocFrame produces an unreferenced frame: from the free list, by growing
// toward the pool's frame budget, or by evicting.
func (p *Pool) allocFrame() (*Frame, error) {
	if f := p.takeFree(); f != nil {
		return f, nil
	}
	for {
		n := p.allocated.Load()
		if int(n) >= p.cap {
			break
		}
		if p.allocated.CompareAndSwap(n, n+1) {
			return &Frame{pool: p, data: make(page.Page, page.Size)}, nil
		}
	}
	// The free list is dry and the pool is at capacity — the low-watermark
	// wakeup: nudge the background writer so the victim about to be chosen
	// (and the next ones) are clean. A pool with nothing dirty gives the
	// writer nothing to do, and a read-only workload evicts on nearly every
	// op: waking a goroutine for each would cost more than the eviction.
	if p.anyDirty() {
		p.kickBgWriter()
	}
	return p.evict()
}

// anyDirty reports whether some partition counts a dirty frame: one atomic
// load per partition.
func (p *Pool) anyDirty() bool {
	for _, part := range p.parts {
		if part.ndirty.Load() > 0 {
			return true
		}
	}
	return false
}

func (p *Pool) takeFree() *Frame {
	p.freeMu.Lock()
	defer p.freeMu.Unlock()
	if n := len(p.free); n > 0 {
		f := p.free[n-1]
		p.free = p.free[:n-1]
		return f
	}
	return nil
}

// putFree returns an unreferenced frame (never installed, or already
// removed from its partition with no pins) to the free list, and wakes an
// allocation waiting for a frame.
func (p *Pool) putFree(f *Frame) {
	p.freeMu.Lock()
	p.free = append(p.free, f)
	p.freeMu.Unlock()
	p.noteUnpin()
}

// pinWaitBound is how long an allocation that finds every frame pinned
// waits for pins to be released before it reports the pool exhausted. Pins
// are held for the length of one page access, so a wait that runs out means
// callers really hold more pages than the pool has.
const pinWaitBound = 250 * time.Millisecond

// evict reclaims the least recently used unpinned frame of some partition,
// writing its page back first when dirty. When every frame is pinned it
// waits, up to pinWaitBound, for a caller to release one or for a frame to
// reach the free list, which each retry looks at first.
func (p *Pool) evict() (*Frame, error) {
	var deadline time.Time
	for {
		if !deadline.IsZero() {
			if f := p.takeFree(); f != nil {
				return f, nil
			}
		}
		f, err := p.evictRounds()
		if f != nil || err != nil {
			return f, err
		}
		if deadline.IsZero() {
			deadline = time.Now().Add(pinWaitBound)
		} else if time.Now().After(deadline) {
			return nil, fmt.Errorf("%w (%d frames)", ErrPoolExhausted, p.cap)
		}
		p.waitUnpin(deadline)
	}
}

// waitUnpin blocks until some frame's last pin is released, or a frame is
// put on the free list, or the deadline passes. A release between the
// caller's failed search and the waiter's registration goes unsignalled;
// the caller searches once more after the deadline, so the miss costs time,
// never a spurious error.
func (p *Pool) waitUnpin(deadline time.Time) {
	p.pinWaiters.Add(1)
	defer p.pinWaiters.Add(-1)
	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	select {
	case <-p.unpinned:
	case <-t.C:
	}
}

// noteUnpin wakes an allocation waiting in waitUnpin, if there is one:
// called after a frame's last pin goes, it costs one atomic load otherwise.
func (p *Pool) noteUnpin() {
	if p.pinWaiters.Load() > 0 {
		select {
		case p.unpinned <- struct{}{}:
		default:
		}
	}
}

// evictRounds makes a few passes over the partitions for a victim; nil, nil
// means every frame stayed pinned. The scan starts at a rotating partition
// so replacement pressure spreads across stripes.
func (p *Pool) evictRounds() (*Frame, error) {
	if p.eng.Load() != nil {
		// Pool-wide clean-first pass: with a background writer attached, a
		// foreground dirty write-back is only acceptable when no partition
		// holds any clean unpinned frame at all. Misses install clean pages
		// and the writer cleans dirty ones, so under steady load this pass
		// nearly always succeeds and the foreground path never stalls on
		// write-back.
		if f := p.evictCleanOnly(); f != nil {
			return f, nil
		}
	}
	const rounds = 4
	for r := 0; r < rounds; r++ {
		start := p.evictHand.Add(1)
		for i := range p.parts {
			part := p.parts[(start+uint64(i))&p.partMask]
			f, err := p.evictFrom(part)
			if err != nil {
				return nil, err
			}
			if f != nil {
				return f, nil
			}
		}
		// Frames may have been freed while we scanned.
		if f := p.takeFree(); f != nil {
			return f, nil
		}
		// A write-back's pins, on a gap below its run too (see writeRun),
		// go before it retires: wait for one to retire rather than call a
		// pool exhausted whose pins are on their way out.
		p.wbWaitAny()
	}
	return nil, nil
}

// evictFrom tries to reclaim one partition's LRU victim. A clean victim is
// removed immediately; a dirty one stays resident — privately pinned and
// flagged evicting — while its page goes out with no partition lock held,
// then is reclaimed only if still clean and otherwise unpinned.
//
// With a background writer attached the victim search prefers the coldest
// CLEAN frame over the strictly coldest one: writing a dirty page back is
// the writer's job, and trading a little recency for a stall-free foreground
// eviction is exactly the engine's bargain. Without an engine the historical
// strict-LRU choice stands.
func (p *Pool) evictFrom(part *partition) (*Frame, error) {
	preferClean := p.eng.Load() != nil
	part.mu.Lock()
	f := part.lru.back
	if f == nil {
		part.mu.Unlock()
		return nil, nil
	}
	if preferClean && f.dirty.Load() {
		for cand := f.lruPrev; cand != nil; cand = cand.lruPrev {
			if !cand.dirty.Load() {
				f = cand
				break
			}
		}
	}
	part.lru.removeLocked(f)
	if !f.dirty.Load() {
		delete(part.lookup, f.key())
		part.mu.Unlock()
		obsEvictions.Inc()
		return f, nil
	}
	f.pins = 1
	f.evicting = true
	part.mu.Unlock()

	// A dirty victim on the foreground path is exactly the stall the
	// background writer exists to prevent: the caller now eats write-back
	// (and under a WAL, batch pre-log plus a log flush) before its own I/O
	// can start. Count it — the write-heavy bench gates on this staying ~0
	// with the writer enabled — and nudge the writer.
	obsEvictDirty.Inc()
	p.kickBgWriter()

	_, err := p.writeBackBatch([]*Frame{f})

	part.mu.Lock()
	f.pins--
	f.evicting = false
	if err == nil && f.pins == 0 && !f.dirty.Load() {
		delete(part.lookup, f.key())
		part.mu.Unlock()
		obsEvictions.Inc()
		return f, nil
	}
	// Redirtied, re-pinned, or the write failed: the frame stays resident.
	if f.pins == 0 {
		part.lru.pushBackLocked(f)
	}
	part.mu.Unlock()
	return nil, err
}

// LogDirtyPages appends a physical image of every page modified since its
// last logged image, returning the LSN one past the final image appended (0
// when nothing needed logging). It initiates no flush: the commit path
// appends the commit record behind these images and waits once — a single
// group fsync covers both — and the checkpoint path flushes explicitly. A
// non-zero xid attributes the images to a committing transaction; pages
// dirtied by other in-flight transactions are captured too, which is
// harmless under no-overwrite visibility (their tuples stay invisible until
// their own commit record lands).
func (p *Pool) LogDirtyPages(xid uint32) (wal.LSN, error) {
	if p.wal == nil {
		return 0, nil
	}
	p.logMu.Lock()
	defer p.logMu.Unlock()
	var frames []*Frame
	for _, part := range p.parts {
		frames = part.pinWALDirty(frames)
	}
	// Deterministic append order, for the same reason FlushAll sorts: a
	// seeded crash-simulation run must lay down the same log bytes every
	// time.
	sortFrames(frames)
	var (
		end      wal.LSN
		firstErr error
	)
	buf := getPageBuf()
	defer pageBufs.Put(buf)
	img := buf[:]
	for _, f := range frames {
		if firstErr != nil {
			// Never reached, yet already off its list: queue it again, or the
			// next call would not find it.
			f.part.queueWALDirty(f)
			f.Release()
			continue
		}
		// Copy and append under one latch hold (see flushFrame): a
		// mutator's exclusive latch then orders its newer image strictly
		// after this one in the log, so replay never lands a stale image
		// last. The append may park on segment rotation, but only on the
		// WAL flusher, which takes no frame latches.
		f.latch.RLock()
		if f.walDirty.Load() {
			copy(img, f.data)
			lsn, err := p.logImage(f, img, xid) //lobvet:ignore — append-under-latch is the stale-image-ordering fix; flusher never takes latches
			if err != nil {
				f.part.queueWALDirty(f)
				firstErr = err
			} else if lsn > end {
				end = lsn
			}
		}
		f.latch.RUnlock()
		f.Release()
	}
	return end, firstErr
}

// pageBufs recycles the private page copies that write-back and logging
// stamp and hand to the device or the log; a fresh 8 KB per page written was
// a fifth of a write-heavy workload's allocation.
var pageBufs = sync.Pool{New: func() any { return new([page.Size]byte) }}

func getPageBuf() *[page.Size]byte { return pageBufs.Get().(*[page.Size]byte) }

// zeroPage materialises device blocks below a page being written back whose
// own frames could not go with it (see writeRun).
var zeroPage [page.Size]byte

// A holeFinder is a Checksummer whose page layout has a gap that carries no
// information (a slotted page's free space). Hole returns its bounds within
// img, or 0, 0.
type holeFinder interface {
	Hole(img []byte) (off, n int)
}

// snapshotForWrite fills img with f's page as it must reach the device, and
// marks the frame clean. The page is copied under the shared content latch
// and the write-back checksum stamped on the copy, never on the live frame:
// the frame may be mutated again the moment the latch drops, while the device
// image must match its own stamp so a torn write is detectable when the block
// is read back after a crash.
//
// A page no commit has logged since it last changed (eviction under memory
// pressure, or one re-dirtied after a round's batch pre-log) gets its image
// appended here, under the same latch hold as the copy; XID 0 marks an image
// not attributed to any one transaction (replay is unconditional, so
// attribution is informational). Latch order is then log order: two
// latch-sharing appenders (a commit's LogDirtyPages and this write-back) can
// only interleave with byte-identical images, and a mutator's exclusive hold
// strictly orders its change after both their appends, so the log's last
// image of a page is always its newest state. Appending after the latch
// drops would let a mutate-and-log win the race and land the older image
// later in the log, where replay (crash recovery and replicas alike) would
// resurrect it. The append can park on segment rotation, but only on the WAL
// flusher, which takes no frame latches — no cycle, just a bounded stall on a
// full segment. On error the frame is dirty again.
func (p *Pool) snapshotForWrite(f *Frame, img []byte) error {
	f.latch.RLock()
	defer f.latch.RUnlock()
	return p.snapshotLatched(f, img) //lobvet:ignore — append-under-latch is the stale-image-ordering fix; flusher never takes latches
}

// snapshotLatched is snapshotForWrite with f's shared latch already held.
// With no log attached the write-back also settles walDirty: once the page is
// on the device, a log attached later (recovery's end, Promote) needs no
// image of it until it changes again.
func (p *Pool) snapshotLatched(f *Frame, img []byte) error {
	f.setDirty(false)
	copy(img, f.data)
	if p.wal != nil && f.walDirty.Load() {
		if _, err := p.logImage(f, img, 0); err != nil {
			f.setDirty(true)
			return err
		}
		return nil
	}
	if p.wal == nil {
		f.walDirty.Store(false)
	}
	if cs := f.rel.checksummer(); cs != nil {
		cs.Stamp(img)
	}
	return nil
}

// logImage stamps img — the caller's private copy of f's page, taken under
// the shared content latch the caller still holds — and appends it to the log
// as f's newest image, clearing walDirty once it is there. A layout with a
// hole is logged without it: the hole is zeroed first, so the stamp covers
// the page replay will rebuild. On error walDirty stays set.
func (p *Pool) logImage(f *Frame, img []byte, xid uint32) (wal.LSN, error) {
	var off, n int
	if cs := f.rel.checksummer(); cs != nil {
		if h, ok := cs.(holeFinder); ok {
			off, n = h.Hole(img)
			clear(img[off : off+n])
		}
		cs.Stamp(img)
	}
	lsn, err := p.wal.AppendPageImageHole(f.rel.sm, f.rel.name, f.blk, img, off, n, xid)
	if err == nil {
		f.walLSN.Store(uint64(lsn))
		f.walDirty.Store(false)
	}
	return lsn, err
}

// A Checksummer stamps a device-bound page image with a checksum and
// verifies an image read back from the device, using whatever header slot
// the relation's page layout reserves. Access methods register one per
// relation with their handle (Handle); the pool itself stays ignorant of page
// layouts. Verify must accept unstamped images — blocks written before the
// relation had a checksummer — and must return an error for a stamped image
// whose contents no longer match, which is how a torn block left by a crash
// is detected instead of being parsed as garbage.
type Checksummer interface {
	Stamp(img []byte)
	Verify(img []byte) error
}

// checkpointSlicePages bounds how many pages a flush pins and writes back
// between scheduler yields.
const checkpointSlicePages = 64

// dirtyRef is a dirty frame a flush's sweep found, not pinned: the frame and
// the page it held. A checkpoint pins its dirty set one slice at a time —
// foreground allocation needs the rest of the pool — so by the time a
// reference's slice comes up the frame may have been written back, evicted
// or given another page; pinDirtyRef tells.
type dirtyRef struct {
	f   *Frame
	rel *Rel
	blk storage.BlockNum
}

func cmpDirtyRef(a, b dirtyRef) int {
	if c := cmpRel(a.rel, b.rel); c != 0 {
		return c
	}
	return cmp.Compare(a.blk, b.blk)
}

// flushScratch is the reusable state of one flush (see Pool.flushScratch).
type flushScratch struct {
	dirty  []dirtyRef
	rels   []*Rel
	frames []*Frame
}

func (p *Pool) takeFlushScratch() *flushScratch {
	if s := p.flushScratch.Swap(nil); s != nil {
		return s
	}
	return new(flushScratch)
}

// putFlushScratch hands the scratch back, holding no frame or descriptor.
// dirty and rels are filled from their start, so their lengths bound what
// they hold; frames is refilled per slice, so an earlier, longer slice may
// have left entries past its length.
func (p *Pool) putFlushScratch(s *flushScratch) {
	clear(s.dirty)
	clear(s.rels)
	clear(s.frames[:cap(s.frames)])
	s.dirty, s.rels, s.frames = s.dirty[:0], s.rels[:0], s.frames[:0]
	p.flushScratch.Store(s)
}

// sweepDirty appends every dirty resident frame in one pass over the
// partitions. A partition counting no dirty frame is passed by without its
// lock; any other is walked to the end, since frames of it may be dirtied
// while the walk runs (MarkDirty needs only a pin), so the count read at the
// start cannot tell when the frames dirty before the sweep have all been
// seen.
func (p *Pool) sweepDirty(dst []dirtyRef) []dirtyRef {
	scanned := 0
	for _, part := range p.parts {
		if part.ndirty.Load() <= 0 {
			continue
		}
		part.mu.Lock()
		for _, f := range part.lookup {
			scanned++
			if f.dirty.Load() {
				dst = append(dst, dirtyRef{f, f.rel, f.blk})
			}
		}
		part.mu.Unlock()
	}
	obsFlushScanned.Add(int64(scanned))
	return dst
}

// pinDirtyRef pins the frame e names if it still holds e's page and is
// still dirty, and returns nil otherwise.
func (p *Pool) pinDirtyRef(e dirtyRef) *Frame {
	key := e.rel.key(e.blk)
	part := p.part(e.rel, e.blk)
	part.mu.Lock()
	defer part.mu.Unlock()
	obsFlushScanned.Inc()
	if f, ok := part.lookup[key]; ok && f == e.f && f.dirty.Load() {
		part.pinLocked(f)
		return f
	}
	return nil
}

// FlushRel makes the relation durable: it writes back every dirty page, then
// syncs the relation if anything was written to it since its last sync.
// Pinned frames are flushed too (they stay resident). A relation counting
// no dirty page visits no frame; any other is found by FlushAll's sweep.
func (p *Pool) FlushRel(sm storage.ID, rel storage.RelName) error {
	r := p.Rel(sm, rel)
	s := p.takeFlushScratch()
	defer p.putFlushScratch(s)
	if r.ndirty.Load() > 0 {
		s.dirty = slices.DeleteFunc(p.sweepDirty(s.dirty), func(e dirtyRef) bool { return e.rel != r })
		slices.SortFunc(s.dirty, cmpDirtyRef)
	}
	return p.flushRel(r, s.dirty, s)
}

// flushRel writes back refs, r's dirty pages in ascending block order,
// through writeBackBatch — gather writes over contiguous runs, one WAL flush
// ceiling per slice — pinning at most checkpointSlicePages at a time, with
// the scheduler yielded between slices so foreground work interleaves. A
// page a writer round cleaned, or eviction took, since the sweep is passed
// by. Then it syncs the relation, unless nothing was written to it since
// its last sync. Before the sync, write-backs already in flight are
// drained: a page whose dirty bit a writer round cleared before the sweep
// looked is invisible here but not yet on the device, and the sync must
// cover it. A relation no longer on its device is not synced.
func (p *Pool) flushRel(r *Rel, refs []dirtyRef, s *flushScratch) error {
	for len(refs) > 0 {
		slice := refs[:min(checkpointSlicePages, len(refs))]
		refs = refs[len(slice):]
		live := s.frames[:0]
		for _, e := range slice {
			if f := p.pinDirtyRef(e); f != nil {
				live = append(live, f)
			}
		}
		s.frames = live
		var err error
		if len(live) > 0 {
			_, err = p.writeBackBatch(live)
			for _, f := range live {
				f.Release()
			}
		}
		if err != nil {
			return err
		}
		if len(refs) > 0 {
			runtime.Gosched()
		}
	}
	if r.dropped.Load() {
		return nil
	}
	mgr, err := p.sw.Get(r.sm)
	if err != nil {
		return err
	}
	if !mgr.Exists(r.name) {
		return nil
	}
	p.wbWaitRel(r)
	if !r.unsynced.Swap(false) {
		return nil
	}
	if err := mgr.Sync(r.name); err != nil {
		r.unsynced.Store(true)
		return fmt.Errorf("buffer: sync %s: %w", r.name, err)
	}
	return nil
}

// FlushAll is the data half of every checkpoint: one sweep of the pool
// collects the dirty frames, and each relation holding one, or written
// since its last sync, is flushed as FlushRel would (flushRel). Its cost is
// O(resident frames + dirty pages) whatever the number of relations. A
// sticky background write-back error is returned first, and the flush does
// not run: the error surfaces once, where the checkpoint can report it, and
// the frames it left dirty are written by the next checkpoint. Relations
// are flushed in (storage manager, name) order, each in block order, so a
// given workload issues the same device-operation sequence every run — the
// crash-simulation harness depends on that to make a seeded crash land on
// the same operation each time.
func (p *Pool) FlushAll() error {
	if err := p.TakeBackgroundError(); err != nil {
		return fmt.Errorf("buffer: background write-back: %w", err)
	}
	s := p.takeFlushScratch()
	defer p.putFlushScratch(s)
	s.dirty = p.sweepDirty(s.dirty)
	slices.SortFunc(s.dirty, cmpDirtyRef)
	for i, e := range s.dirty {
		if i == 0 || e.rel != s.dirty[i-1].rel {
			s.rels = append(s.rels, e.rel)
		}
	}
	p.nbMu.Lock()
	for _, r := range p.rels {
		if r.unsynced.Load() {
			s.rels = append(s.rels, r)
		}
	}
	p.nbMu.Unlock()
	slices.SortFunc(s.rels, cmpRel)
	s.rels = slices.Compact(s.rels)
	dirty := s.dirty
	for _, r := range s.rels {
		n := 0
		for n < len(dirty) && dirty[n].rel == r {
			n++
		}
		if err := p.flushRel(r, dirty[:n], s); err != nil {
			return err
		}
		dirty = dirty[n:]
	}
	return nil
}

// DropRel evicts every buffered page of a relation, writing dirty ones back
// first, so the next access starts cold; the descriptor and its handle stay
// live. Fails at once if any page of the relation is caller-pinned; pins
// held briefly by a racing eviction write-back are waited out. Callers must
// not mutate the relation concurrently with dropping it.
func (p *Pool) DropRel(sm storage.ID, rel storage.RelName) error {
	r := p.lookupRel(sm, rel)
	if r == nil {
		return nil // the pool holds nothing of it
	}
	return p.dropRel(r, false)
}

// Unlink removes a relation, in three steps. It discards the relation's
// frames, dirty ones included, and retires its descriptor: handles still
// holding it get ErrDropped, and the name resolves to a fresh descriptor.
// It appends an unlink record to the attached log, if any, so redo never
// resurrects storage removed after its pages were logged; the record rides
// with the next group flush, and losing it merely leaves an orphaned
// relation no catalog entry points at. Crash recovery and a replica's
// replay run with no log attached. Last, it unlinks the storage, if it
// exists. A reader's pin is waited out up to pinWaitBound; one held longer
// fails with ErrPinned and leaves the relation in place. This is the one
// unlink: access-method drops, migration, redo and a replica's wipe all go
// through it.
func (p *Pool) Unlink(sm storage.ID, rel storage.RelName) error {
	if r := p.lookupRel(sm, rel); r != nil {
		if err := p.dropRel(r, true); err != nil {
			return err
		}
	}
	mgr, err := p.sw.Get(sm)
	if err != nil {
		return err
	}
	if p.wal != nil {
		if lsn, err := p.wal.AppendUnlink(sm, rel); err == nil {
			p.wal.FlushLazy(lsn)
		}
	}
	if !mgr.Exists(rel) {
		return nil
	}
	return mgr.Unlink(rel)
}

// dropRel evicts r's frames, and with discard throws dirty ones away and
// retires the descriptor. A pin held by a racing eviction write-back is
// gone momentarily. Any other pin fails an evicting drop at once; a
// discarding one, which Unlink makes, waits it out through the pool's unpin
// signal until pinWaitBound runs out, then fails with ErrPinned. The wait is
// taken in millisecond slices, so a wakeup another waiter consumed costs a
// millisecond, never the whole bound.
func (p *Pool) dropRel(r *Rel, discard bool) error {
	deadline := time.Now()
	if discard {
		deadline = deadline.Add(pinWaitBound)
	}
	for {
		retry, err := p.dropRelOnce(r, discard)
		if errors.Is(err, ErrPinned) && time.Now().Before(deadline) {
			p.waitUnpin(time.Now().Add(time.Millisecond))
			continue
		}
		if !retry {
			return err
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func (p *Pool) dropRelOnce(r *Rel, discard bool) (retry bool, err error) {
	// Lock order: nbMu, then every partition, matching NewBlock.
	// lockorder:allow buffer.partition.mu->buffer.partition.mu — all-partition sweep locks partitions in ascending index order, so concurrent sweeps cannot deadlock
	p.nbMu.Lock()
	for _, part := range p.parts {
		part.mu.Lock()
	}
	unlock := func() {
		for _, part := range p.parts {
			part.mu.Unlock()
		}
		p.nbMu.Unlock()
	}
	if r.dropped.Load() {
		unlock()
		return false, nil
	}
	frames := p.relFramesLocked(r)
	for _, f := range frames {
		if f.pins == 0 {
			continue
		}
		evicting, tag := f.evicting, f.Tag()
		unlock()
		if evicting {
			return true, nil // the write-back finishes momentarily
		}
		return false, fmt.Errorf("%w: %s", ErrPinned, tag)
	}
	if !discard && r.ndirty.Load() > 0 {
		// Write-backs must run with no partition lock held: under a WAL,
		// writeBackBatch pre-logs the unlogged dirty set (LogDirtyPages),
		// which itself takes every partition lock — calling it from here
		// would self-deadlock. Pin the relation's dirty frames, drop every
		// lock, write them back in block order, and retry the drop; by then
		// they are clean (the caller must not mutate a relation it is
		// dropping) or the write has failed.
		dirty := frames[:0]
		for _, f := range frames {
			if f.dirty.Load() {
				f.part.pinLocked(f)
				dirty = append(dirty, f)
			}
		}
		if len(dirty) > 0 {
			unlock()
			sortFrames(dirty)
			_, err := p.writeBackBatch(dirty)
			for _, f := range dirty {
				f.Release()
			}
			if err != nil {
				return false, err
			}
			return true, nil
		}
	}
	for _, f := range frames {
		if f.inLRU {
			f.part.lru.removeLocked(f)
		}
		delete(f.part.lookup, f.key())
		f.setDirty(false) // a discarded page leaves its counts behind
		p.putFree(f)
	}
	if discard {
		r.dropped.Store(true)
		delete(p.rels, relKey{r.sm, r.name})
	} else {
		r.nbKnown = false
	}
	unlock()
	return false, nil
}

// relFramesLocked returns r's resident frames, found in one pass over the
// lookup tables; the caller holds nbMu and every partition lock.
func (p *Pool) relFramesLocked(r *Rel) []*Frame {
	var frames []*Frame
	scanned := 0
	for _, part := range p.parts {
		for _, f := range part.lookup {
			scanned++
			if f.rel == r {
				frames = append(frames, f)
			}
		}
	}
	obsFlushScanned.Add(int64(scanned))
	return frames
}
