// Package buffer implements the shared buffer pool that sits between the
// access methods (heap, B-tree) and the storage manager switch. Pages are
// cached in fixed frames with pin counts, LRU replacement of unpinned
// frames, and write-back of dirty pages. The pool also tracks a "virtual"
// relation length so new blocks can be allocated in memory and written out
// lazily, the way POSTGRES extends relations.
//
// Concurrency model: the lookup table, LRU list, and pin counts are sharded
// into lock-striped partitions keyed by a hash of the page Tag, so readers
// of different pages contend only when their tags collide. Device reads on
// a miss happen with no pool lock held — concurrent misses overlap their
// I/O — and a lost install race simply discards the duplicate read. Each
// frame carries a shared/exclusive content latch: access methods hold it
// exclusive around page-byte mutation and the pool holds it shared while a
// page's bytes are on their way to the device, so a flush never writes a
// torn page. Lock ordering is nbMu → partition mutexes (ascending) →
// relation extension lock → frame latch; no code acquires an earlier lock
// while holding a later one, and no pool call is made while a content latch
// is held.
package buffer

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
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
	// obsDirtyFrames is the sum of every pool's partition ndirty counts.
	obsDirtyFrames = obs.NewGauge("buffer.dirty_frames")
)

// Errors returned by the pool.
var (
	ErrPoolExhausted = errors.New("buffer: all frames pinned")
	ErrPinned        = errors.New("buffer: frame still pinned")
)

// maxPartitions caps the lock striping; pools smaller than this get one
// partition per frame.
const maxPartitions = 16

// Tag identifies a disk page: which storage manager, which relation, which
// block.
type Tag struct {
	SM  storage.ID
	Rel storage.RelName
	Blk storage.BlockNum
}

func (t Tag) String() string {
	return fmt.Sprintf("%v:%s:%d", t.SM, t.Rel, t.Blk)
}

type relKey struct {
	sm  storage.ID
	rel storage.RelName
}

// Frame is a pinned buffer holding one page. Callers must Release every
// frame they obtain, and MarkDirty after mutating its page under the
// exclusive content latch.
type Frame struct {
	pool *Pool
	// part is the frame's resident partition. It is written only while the
	// frame is unreferenced (install time) and is stable while pinned, so
	// pin holders may read it without a lock.
	part     *partition
	tag      Tag
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
func (f *Frame) Tag() Tag { return f.tag }

// MarkDirty records that the page has been modified and must be written back
// before eviction.
func (f *Frame) MarkDirty() {
	f.setDirty(true)
	f.noteWALDirty()
}

// setDirty is the only writer of f.dirty. It keeps the resident partition's
// ndirty exact by adjusting it only on a real transition, which Swap makes
// race-free between concurrent setters. The caller holds a pin or part.mu, or
// owns the unreferenced frame it is installing (f.part already assigned).
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

// noteWALDirty records that the page differs from its last logged image and,
// when that is news, queues the frame on its partition's WAL-dirty list — the
// only place LogDirtyPages looks. The caller holds a pin or part.mu, either
// of which keeps tag and part stable. Without a log nobody drains the lists,
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
	defer part.mu.Unlock()
	if f.pins <= 0 {
		panic("buffer: Release of unpinned frame " + f.tag.String())
	}
	f.pins--
	if f.pins == 0 {
		part.lru.pushFrontLocked(f)
	}
}

// partition is one lock stripe of the pool: the frames whose tags hash
// here, their lookup table, and their LRU list.
type partition struct {
	mu     sync.Mutex
	lookup map[Tag]*Frame // guarded by mu
	lru    lruList        // guarded by mu; unpinned frames, front = most recently used
	hits   int64          // guarded by mu
	misses int64          // guarded by mu

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
	// evicted or dropped; the drain filters them under mu by looking the tag
	// up again, which is why an entry carries the tag the frame had when it
	// was queued.
	wdList []walDirtyEntry // guarded by wdMu
}

type walDirtyEntry struct {
	tag Tag
	f   *Frame
}

func (part *partition) queueWALDirty(f *Frame) {
	part.wdMu.Lock()
	part.wdList = append(part.wdList, walDirtyEntry{f.tag, f})
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
		if f, ok := part.lookup[e.tag]; ok && f == e.f && f.walDirty.Load() {
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

// tryPin returns the resident frame for tag with one more pin, or nil.
// A successful pin is counted as a hit while the partition lock is held,
// so Stats can take a snapshot that is consistent across partitions.
func (part *partition) tryPin(tag Tag) *Frame {
	part.mu.Lock()
	defer part.mu.Unlock()
	f, ok := part.lookup[tag]
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

	nbMu    sync.Mutex
	nblocks map[relKey]storage.BlockNum // guarded by nbMu

	extMu sync.Mutex
	ext   map[relKey]*sync.Mutex // guarded by extMu; per-relation extension locks

	csMu      sync.RWMutex
	checksums map[relKey]Checksummer // guarded by csMu

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
	// to pinDirty and not yet guaranteed on the device — so a checkpoint
	// that syncs the relation must first drain it (wbWaitRel), or it could
	// durably advance the redo point past an image that never reached the
	// synced medium, and a crash would lose the page with nothing to replay.
	wbMu       sync.Mutex
	wbCond     *sync.Cond     // signalled as in-flight write-backs retire
	wbInFlight map[relKey]int // guarded by wbMu
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
		sw:        sw,
		clock:     clock,
		cap:       nframes,
		partMask:  uint64(nparts - 1),
		parts:     make([]*partition, nparts),
		nblocks:   make(map[relKey]storage.BlockNum),
		ext:       make(map[relKey]*sync.Mutex),
		checksums: make(map[relKey]Checksummer),

		wbInFlight: make(map[relKey]int),
	}
	p.wbCond = sync.NewCond(&p.wbMu)
	for i := range p.parts {
		p.parts[i] = &partition{lookup: make(map[Tag]*Frame)}
	}
	return p
}

// wbBegin signs a device write-back of rel's pages into the drain gate.
// Must precede the dirty-bit clear; pair with wbEnd on every path.
func (p *Pool) wbBegin(key relKey) {
	p.wbMu.Lock()
	p.wbInFlight[key]++
	p.wbMu.Unlock()
}

// wbEnd retires a write-back begun with wbBegin and wakes drain waiters.
func (p *Pool) wbEnd(key relKey) {
	p.wbMu.Lock()
	if p.wbInFlight[key]--; p.wbInFlight[key] <= 0 {
		delete(p.wbInFlight, key)
	}
	p.wbCond.Broadcast()
	p.wbMu.Unlock()
}

// wbWaitRel blocks until no write-back of rel's pages is in flight. A
// checkpoint calls it immediately before syncing the relation: any frame
// whose dirty bit a write-back cleared before the checkpoint's own flush
// pass is then guaranteed to have reached the (possibly volatile) device,
// where the sync that follows makes it durable. Write-backs that begin
// after the wait was satisfied carry images logged after the checkpoint's
// redo point, which replay covers.
func (p *Pool) wbWaitRel(key relKey) {
	p.wbMu.Lock()
	for p.wbInFlight[key] > 0 {
		p.wbCond.Wait()
	}
	p.wbMu.Unlock()
}

// wbWaitAny blocks until some device write-back retires, or returns at
// once when none is in flight.
func (p *Pool) wbWaitAny() {
	p.wbMu.Lock()
	if len(p.wbInFlight) > 0 {
		p.wbCond.Wait()
	}
	p.wbMu.Unlock()
}

// part hashes a tag to its partition (FNV-1a over rel, SM, and block).
func (p *Pool) part(tag Tag) *partition {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(tag.Rel); i++ {
		h = (h ^ uint64(tag.Rel[i])) * prime
	}
	h = (h ^ uint64(tag.SM)) * prime
	h = (h ^ uint64(tag.Blk)) * prime
	return p.parts[h&p.partMask]
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

// NBlocks returns the relation's length including blocks that exist only as
// dirty frames not yet written out.
func (p *Pool) NBlocks(sm storage.ID, rel storage.RelName) (storage.BlockNum, error) {
	p.nbMu.Lock()
	defer p.nbMu.Unlock()
	return p.nblocksLocked(sm, rel)
}

func (p *Pool) nblocksLocked(sm storage.ID, rel storage.RelName) (storage.BlockNum, error) {
	key := relKey{sm, rel}
	if n, ok := p.nblocks[key]; ok {
		return n, nil
	}
	mgr, err := p.sw.Get(sm)
	if err != nil {
		return 0, err
	}
	n, err := mgr.NBlocks(rel)
	if err != nil {
		return 0, err
	}
	p.nblocks[key] = n
	return n, nil
}

// Get pins the frame holding the page identified by tag, reading it from the
// storage manager on a miss. The device read happens with no pool lock held,
// so concurrent misses overlap their I/O; when two goroutines race to load
// the same page, one install wins and the other read is discarded.
func (p *Pool) Get(tag Tag) (*Frame, error) {
	obsLookups.Inc()
	part := p.part(tag)
	if f := part.tryPin(tag); f != nil {
		obsHits.Inc()
		return f, nil
	}
	// Count the miss up front (whatever the outcome of the device read) so
	// hits + misses == lookups holds even on error paths. The lost-install
	// race below is still this one miss, not an extra hit.
	part.mu.Lock()
	part.misses++
	part.mu.Unlock()
	obsMisses.Inc()
	for attempt := 0; ; attempt++ {
		n, err := p.NBlocks(tag.SM, tag.Rel)
		if err != nil {
			return nil, err
		}
		if tag.Blk >= n {
			return nil, fmt.Errorf("%w: %s (nblocks %d)", storage.ErrBadBlock, tag, n)
		}
		f, err := p.allocFrame()
		if err != nil {
			return nil, err
		}
		mgr, err := p.sw.Get(tag.SM)
		if err != nil {
			p.putFree(f)
			return nil, err
		}
		sw := obsReadLat.Start()
		readErr := mgr.ReadBlock(tag.Rel, tag.Blk, f.data)
		sw.Stop()
		if readErr == nil {
			if cs := p.checksummer(tag.SM, tag.Rel); cs != nil {
				if err := cs.Verify(f.data); err != nil {
					readErr = fmt.Errorf("buffer: %s: %w", tag, err)
				}
			}
		}

		part.mu.Lock()
		if g, ok := part.lookup[tag]; ok {
			// Lost the install race (or the page was born in the pool while
			// we were at the device): use the resident frame.
			part.pinLocked(g)
			part.mu.Unlock()
			p.putFree(f)
			return g, nil
		}
		if readErr != nil {
			part.mu.Unlock()
			p.putFree(f)
			// A checksum mismatch can be a transient torn read racing an
			// eviction's in-flight device write; once that write completes
			// a re-read sees the full image. Only a mismatch that persists
			// is real on-device corruption.
			if errors.Is(readErr, page.ErrChecksum) && attempt < 4 {
				time.Sleep(20 * time.Microsecond)
				continue
			}
			// A block inside the relation's virtual length lives either in
			// the pool or on the device; a failed device read can race an
			// eviction that was still materialising the block. Retry only
			// when the device genuinely lacks the block — if the device
			// claims it exists, the failure is a real I/O error and must
			// surface to the caller.
			if devN, nErr := mgr.NBlocks(tag.Rel); attempt == 0 && nErr == nil && tag.Blk >= devN {
				continue
			}
			return nil, readErr
		}
		f.tag = tag
		f.part = part
		f.pins = 1
		f.evicting = false
		f.setDirty(false)
		f.walDirty.Store(false)
		f.walLSN.Store(0)
		part.lookup[tag] = f
		part.mu.Unlock()
		return f, nil
	}
}

// NewBlock extends the relation by one page and returns the new block's
// pinned, dirty, zeroed frame. The block reaches the device lazily. The
// frame is installed in its partition before the new length is published,
// so a concurrent Get that sees the length always finds the page.
func (p *Pool) NewBlock(sm storage.ID, rel storage.RelName) (*Frame, storage.BlockNum, error) {
	f, err := p.allocFrame()
	if err != nil {
		return nil, 0, err
	}
	for i := range f.data {
		f.data[i] = 0
	}
	p.nbMu.Lock()
	n, err := p.nblocksLocked(sm, rel)
	if err != nil {
		p.nbMu.Unlock()
		p.putFree(f)
		return nil, 0, err
	}
	tag := Tag{SM: sm, Rel: rel, Blk: n}
	part := p.part(tag)
	part.mu.Lock()
	f.tag = tag
	f.part = part
	f.pins = 1
	f.evicting = false
	f.setDirty(true)
	f.walDirty.Store(false)
	f.noteWALDirty()
	f.walLSN.Store(0)
	part.lookup[tag] = f
	p.nblocks[relKey{sm, rel}] = n + 1
	part.mu.Unlock()
	p.nbMu.Unlock()
	return f, n, nil
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
	for {
		n, err := p.NBlocks(sm, rel)
		if err != nil {
			return err
		}
		if blk < n {
			break
		}
		f, bn, err := p.NewBlock(sm, rel)
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
	tag := Tag{SM: sm, Rel: rel, Blk: blk}
	part := p.part(tag)
	for {
		if f := part.tryPin(tag); f != nil {
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
		if _, ok := part.lookup[tag]; ok {
			// Lost an install race with a concurrent reader; retry the
			// resident path so the overwrite lands in the surviving frame.
			part.mu.Unlock()
			p.putFree(f)
			continue
		}
		f.tag = tag
		f.part = part
		f.pins = 1
		f.evicting = false
		f.setDirty(true)
		f.walDirty.Store(false)
		f.noteWALDirty()
		f.walLSN.Store(0)
		part.lookup[tag] = f
		part.mu.Unlock()
		f.Release()
		return nil
	}
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
// removed from its partition with no pins) to the free list.
func (p *Pool) putFree(f *Frame) {
	p.freeMu.Lock()
	p.free = append(p.free, f)
	p.freeMu.Unlock()
}

// evict reclaims the least recently used unpinned frame of some partition,
// writing its page back first when dirty. The scan starts at a rotating
// partition so replacement pressure spreads across stripes.
func (p *Pool) evict() (*Frame, error) {
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
	return nil, fmt.Errorf("%w (%d frames)", ErrPoolExhausted, p.cap)
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
		delete(part.lookup, f.tag)
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
		delete(part.lookup, f.tag)
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

// extLock returns the relation's extension lock, which serialises device
// growth (the no-holes invariant needs a stable view of the physical
// length).
func (p *Pool) extLock(sm storage.ID, rel storage.RelName) *sync.Mutex {
	key := relKey{sm, rel}
	p.extMu.Lock()
	defer p.extMu.Unlock()
	mu, ok := p.ext[key]
	if !ok {
		mu = new(sync.Mutex)
		p.ext[key] = mu
	}
	return mu
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
	sortFramesByTag(frames)
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
	if cs := p.checksummer(f.tag.SM, f.tag.Rel); cs != nil {
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
	if cs := p.checksummer(f.tag.SM, f.tag.Rel); cs != nil {
		if h, ok := cs.(holeFinder); ok {
			off, n = h.Hole(img)
			clear(img[off : off+n])
		}
		cs.Stamp(img)
	}
	lsn, err := p.wal.AppendPageImageHole(f.tag.SM, f.tag.Rel, f.tag.Blk, img, off, n, xid)
	if err == nil {
		f.walLSN.Store(uint64(lsn))
		f.walDirty.Store(false)
	}
	return lsn, err
}

// LogUnlink records a relation drop in the attached log (a no-op without
// one), so replay never resurrects storage that was deliberately removed
// after its pages were logged. The record rides with the next group flush —
// losing it merely leaves an orphaned relation no catalog entry points at.
func (p *Pool) LogUnlink(sm storage.ID, rel storage.RelName) {
	if p.wal == nil {
		return
	}
	lsn, err := p.wal.AppendUnlink(sm, rel)
	if err == nil {
		p.wal.FlushLazy(lsn)
	}
}

// A Checksummer stamps a device-bound page image with a checksum and
// verifies an image read back from the device, using whatever header slot
// the relation's page layout reserves. Access methods register one per
// relation (SetChecksummer); the pool itself stays ignorant of page
// layouts. Verify must accept unstamped images — blocks written before the
// relation had a checksummer — and must return an error for a stamped image
// whose contents no longer match, which is how a torn block left by a crash
// is detected instead of being parsed as garbage.
type Checksummer interface {
	Stamp(img []byte)
	Verify(img []byte) error
}

// SetChecksummer registers the relation's page checksummer; nil disables
// checksumming. Registration must precede reads for verification to happen,
// so access methods call this when a relation is created or opened.
func (p *Pool) SetChecksummer(sm storage.ID, rel storage.RelName, cs Checksummer) {
	p.csMu.Lock()
	if cs == nil {
		delete(p.checksums, relKey{sm, rel})
	} else {
		p.checksums[relKey{sm, rel}] = cs
	}
	p.csMu.Unlock()
}

func (p *Pool) checksummer(sm storage.ID, rel storage.RelName) Checksummer {
	p.csMu.RLock()
	cs := p.checksums[relKey{sm, rel}]
	p.csMu.RUnlock()
	return cs
}

// checkpointSlicePages bounds how many pages FlushRel writes back between
// scheduler yields.
const checkpointSlicePages = 64

// FlushRel makes the relation durable: it writes back every dirty page, then
// syncs the relation. Pinned frames are flushed too (they stay resident).
// Pages go out in ascending block order through writeBackBatch — gather
// writes over contiguous runs, one WAL flush ceiling per slice — at most
// checkpointSlicePages at a time, with the scheduler yielded between slices
// so foreground work interleaves. Before the sync, write-backs already in
// flight are drained: a page whose dirty bit a writer round cleared before
// pinDirty looked is invisible here but not yet on the device, and the sync
// must cover it. A relation no longer on its device is not synced.
func (p *Pool) FlushRel(sm storage.ID, rel storage.RelName) error {
	frames := p.pinDirty(sm, rel)
	sort.Slice(frames, func(i, j int) bool { return frames[i].tag.Blk < frames[j].tag.Blk })
	var first error
	for len(frames) > 0 {
		slice := frames[:min(checkpointSlicePages, len(frames))]
		frames = frames[len(slice):]
		// A frame a writer round cleaned since it was pinned is released
		// unwritten, as is every frame once a write has failed; the rest are
		// compacted to the slice's front.
		live := slice[:0]
		for _, f := range slice {
			if first == nil && f.dirty.Load() {
				live = append(live, f)
			} else {
				f.Release()
			}
		}
		if len(live) > 0 {
			if _, err := p.writeBackBatch(live); err != nil {
				first = err
			}
		}
		for _, f := range live {
			f.Release()
		}
		if len(frames) > 0 {
			runtime.Gosched()
		}
	}
	if first != nil {
		return first
	}
	mgr, err := p.sw.Get(sm)
	if err != nil {
		return err
	}
	if !mgr.Exists(rel) {
		return nil
	}
	p.wbWaitRel(relKey{sm, rel})
	if err := mgr.Sync(rel); err != nil {
		return fmt.Errorf("buffer: sync %s: %w", rel, err)
	}
	return nil
}

// pinDirty pins every dirty resident frame of the relation.
func (p *Pool) pinDirty(sm storage.ID, rel storage.RelName) []*Frame {
	var frames []*Frame
	for _, part := range p.parts {
		part.mu.Lock()
		for tag, f := range part.lookup {
			if tag.SM == sm && tag.Rel == rel && f.dirty.Load() {
				part.pinLocked(f)
				frames = append(frames, f)
			}
		}
		part.mu.Unlock()
	}
	return frames
}

// FlushAll is the data half of every checkpoint: it runs FlushRel over every
// relation the pool has extended or read. A sticky background write-back
// error is returned first, and the flush does not run: the error surfaces
// once, where the checkpoint can report it, and the frames it left dirty are
// written by the next checkpoint. Relations are flushed in sorted order so a
// given workload issues the same device-operation sequence every run — the
// crash-simulation harness depends on that to make a seeded crash land on
// the same operation each time.
func (p *Pool) FlushAll() error {
	if err := p.TakeBackgroundError(); err != nil {
		return fmt.Errorf("buffer: background write-back: %w", err)
	}
	p.nbMu.Lock()
	keys := make([]relKey, 0, len(p.nblocks))
	for key := range p.nblocks {
		keys = append(keys, key)
	}
	p.nbMu.Unlock()
	sortRelKeys(keys)
	for _, key := range keys {
		if err := p.FlushRel(key.sm, key.rel); err != nil {
			return err
		}
	}
	return nil
}

func sortRelKeys(keys []relKey) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].sm != keys[j].sm {
			return keys[i].sm < keys[j].sm
		}
		return keys[i].rel < keys[j].rel
	})
}

// DropRel invalidates every buffered page of a relation. With discard, dirty
// pages are thrown away (used when unlinking temporaries); otherwise they
// are flushed first. Fails if any page of the relation is caller-pinned;
// pins held briefly by a racing eviction write-back are waited out. Callers
// must not access the relation concurrently with dropping it.
func (p *Pool) DropRel(sm storage.ID, rel storage.RelName, discard bool) error {
	for {
		retry, err := p.dropRelOnce(sm, rel, discard)
		if !retry {
			return err
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func (p *Pool) dropRelOnce(sm storage.ID, rel storage.RelName, discard bool) (retry bool, err error) {
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
	for _, part := range p.parts {
		for tag, f := range part.lookup {
			if tag.SM != sm || tag.Rel != rel || f.pins == 0 {
				continue
			}
			if f.evicting {
				unlock()
				return true, nil // the write-back finishes momentarily
			}
			unlock()
			return false, fmt.Errorf("%w: %s", ErrPinned, tag)
		}
	}
	if !discard {
		// Write-backs must run with no partition lock held: under a WAL,
		// writeBackBatch pre-logs the unlogged dirty set (LogDirtyPages),
		// which itself takes every partition lock — calling it from here
		// would self-deadlock. Pin the relation's dirty frames, drop every
		// lock, write them back in tag order, and retry the drop; by then
		// they are clean (the caller must not mutate a relation it is
		// dropping) or the write has failed.
		var dirty []*Frame
		for _, part := range p.parts {
			for tag, f := range part.lookup {
				if tag.SM == sm && tag.Rel == rel && f.dirty.Load() {
					part.pinLocked(f)
					dirty = append(dirty, f)
				}
			}
		}
		if len(dirty) > 0 {
			unlock()
			sortFramesByTag(dirty)
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
	for _, part := range p.parts {
		for tag, f := range part.lookup {
			if tag.SM != sm || tag.Rel != rel {
				continue
			}
			if f.inLRU {
				part.lru.removeLocked(f)
			}
			delete(part.lookup, tag)
			f.setDirty(false) // a discarded page leaves its count behind
			p.putFree(f)
		}
	}
	delete(p.nblocks, relKey{sm, rel})
	p.extMu.Lock()
	delete(p.ext, relKey{sm, rel})
	p.extMu.Unlock()
	unlock()
	return false, nil
}
