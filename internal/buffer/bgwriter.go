// Background I/O engine: a dirty-frame writer that drains cold dirty pages
// ahead of demand, and a sequential-scan prefetcher that fills read-ahead
// windows with batched device reads. Both exist to keep stalls off the
// foreground path — evict() should almost always find a clean victim, and a
// sequential reader should find its next blocks already resident.
//
// The engine is deliberately optional and restartable: the pool works
// exactly as before when no engine is attached (do-I/O-in-the-caller), and a
// Manual engine spawns no goroutines at all — deterministic harnesses (the
// seeded crash sweep) drive BgWriterRound/DrainPrefetch synchronously so the
// device-operation sequence stays bit-for-bit reproducible.
package buffer

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"postlob/internal/obs"
	"postlob/internal/page"
	"postlob/internal/storage"
	"postlob/internal/wal"
)

// Engine metrics, registered once at package init as obsregister requires.
// buffer.bgwriter.pages_written counts into pool.writebacks too (writeRun
// increments both), so bgwriter.pages_written <= pool.writebacks always.
var (
	obsBgRounds   = obs.NewCounter("buffer.bgwriter.rounds")
	obsBgPages    = obs.NewCounter("buffer.bgwriter.pages_written")
	obsBgBatches  = obs.NewCounter("buffer.bgwriter.gather_batches")
	obsBgErrors   = obs.NewCounter("buffer.bgwriter.errors")
	obsBgWakeups  = obs.NewCounter("buffer.bgwriter.wakeups")
	obsBgScanned  = obs.NewCounter("buffer.bg.frames_scanned")
	obsEvictDirty = obs.NewCounter("buffer.evict.dirty_foreground")

	obsPfPosted    = obs.NewCounter("buffer.prefetch.posted")
	obsPfDropped   = obs.NewCounter("buffer.prefetch.dropped")
	obsPfPages     = obs.NewCounter("buffer.prefetch.pages_read")
	obsPfInstalled = obs.NewCounter("buffer.prefetch.installed")
	obsPfSkipped   = obs.NewCounter("buffer.prefetch.skipped")
	obsPfErrors    = obs.NewCounter("buffer.prefetch.errors")
)

// Engine tuning defaults.
const (
	// DefaultBgInterval is the background writer's clock tick.
	DefaultBgInterval = 2 * time.Millisecond
	// DefaultBgBatchPages caps pages written back per writer round.
	DefaultBgBatchPages = 64
	// DefaultPrefetchWindow caps blocks per posted prefetch window.
	DefaultPrefetchWindow = 16
	// DefaultCheckpointSlicePages bounds how many pages an incremental
	// checkpoint writes back between scheduler yields.
	DefaultCheckpointSlicePages = 64

	// prefetchQueueLen bounds pending prefetch windows; posts beyond it are
	// dropped (prefetch is advisory).
	prefetchQueueLen = 64
)

// EngineConfig configures the pool's background I/O engine.
type EngineConfig struct {
	// BackgroundWriter enables the dirty-frame writer.
	BackgroundWriter bool
	// Interval is the writer's clock tick; 0 means DefaultBgInterval.
	Interval time.Duration
	// BatchPages caps pages per writer round; 0 means DefaultBgBatchPages.
	BatchPages int
	// Prefetch enables the read-ahead path.
	Prefetch bool
	// PrefetchWindow caps blocks per posted window; 0 means
	// DefaultPrefetchWindow.
	PrefetchWindow int
	// Manual spawns no goroutines: the harness drives BgWriterRound and
	// DrainPrefetch itself, keeping a seeded workload's device-operation
	// sequence deterministic while still exercising the engine code paths.
	Manual bool
}

// engine is the running instance behind a Pool's StartEngine call.
type engine struct {
	p    *Pool
	cfg  EngineConfig
	wake chan struct{}    // demand nudges from the foreground path, capacity 1
	pf   chan prefetchReq // pending prefetch windows
	stop chan struct{}
	wg   sync.WaitGroup
}

type prefetchReq struct {
	sm  storage.ID
	rel storage.RelName
	blk storage.BlockNum
	n   int
}

// StartEngine attaches and starts a background I/O engine. Call after
// recovery and AttachWAL (write-backs must honor the flush ceiling from the
// first round) and before the pool handles foreground load. Panics if an
// engine is already attached — lifecycle is owned by whoever opened the pool.
func (p *Pool) StartEngine(cfg EngineConfig) {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultBgInterval
	}
	if cfg.BatchPages <= 0 {
		cfg.BatchPages = DefaultBgBatchPages
	}
	if cfg.PrefetchWindow <= 0 {
		cfg.PrefetchWindow = DefaultPrefetchWindow
	}
	e := &engine{
		p:    p,
		cfg:  cfg,
		wake: make(chan struct{}, 1),
		pf:   make(chan prefetchReq, prefetchQueueLen),
		stop: make(chan struct{}),
	}
	if !p.eng.CompareAndSwap(nil, e) {
		panic("buffer: engine already started")
	}
	if cfg.Manual {
		return
	}
	if cfg.BackgroundWriter {
		e.wg.Add(1)
		go e.writerLoop()
	}
	if cfg.Prefetch {
		e.wg.Add(1)
		go e.prefetchLoop()
	}
}

// StopEngine detaches the engine and waits for its goroutines to exit. Dirty
// pages the writer had not reached stay dirty — the closing checkpoint
// flushes them — and a sticky background error, if any, remains readable via
// TakeBackgroundError. Safe to call with no engine attached.
func (p *Pool) StopEngine() {
	e := p.eng.Swap(nil)
	if e == nil {
		return
	}
	close(e.stop)
	e.wg.Wait()
}

// writerLoop drains cold dirty frames on a clock tick and on demand nudges
// from the foreground eviction path. The select parks with no latch held —
// blocking here is the entire point of having a background writer.
func (e *engine) writerLoop() {
	defer e.wg.Done()
	t := time.NewTicker(e.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-t.C:
		case <-e.wake:
		}
		// Errors are already noted sticky by the round (surfaced at the next
		// checkpoint) and the frames stay dirty, so the loop simply goes
		// around and retries on its next tick.
		_, _ = e.p.BgWriterRound(e.cfg.BatchPages)
	}
}

// prefetchLoop services posted read-ahead windows.
func (e *engine) prefetchLoop() {
	defer e.wg.Done()
	for {
		select {
		case <-e.stop:
			return
		case req := <-e.pf:
			e.p.prefetchOne(req)
		}
	}
}

// kickBgWriter nudges the writer from the foreground path. Non-blocking: the
// wake channel holds at most one pending nudge. Callers must not hold a
// partition latch.
func (p *Pool) kickBgWriter() {
	e := p.eng.Load()
	if e == nil || e.cfg.Manual || !e.cfg.BackgroundWriter {
		return
	}
	select {
	case e.wake <- struct{}{}:
		obsBgWakeups.Inc()
	default:
	}
}

// noteBgErr records the first unsurfaced asynchronous write-back error. The
// frames involved stay dirty (the writer retries them), but the error itself
// must not vanish into a goroutine: the next checkpoint or commit-side flush
// reads it via TakeBackgroundError and fails loudly.
func (p *Pool) noteBgErr(err error) {
	p.bgErrMu.Lock()
	if p.bgErr == nil {
		p.bgErr = err
	}
	p.bgErrMu.Unlock()
}

// TakeBackgroundError returns and clears the sticky asynchronous write-back
// error, or nil. Reported conservatively: the error surfaces once even if a
// later retry of the same frames succeeded.
func (p *Pool) TakeBackgroundError() error {
	p.bgErrMu.Lock()
	err := p.bgErr
	p.bgErr = nil
	p.bgErrMu.Unlock()
	return err
}

// BgWriterRound performs one writer round synchronously: collect up to
// maxPages of the coldest dirty unpinned frames, write them back (batch
// pre-logging and one WAL flush cover the whole round, gather writes cover
// contiguous runs), and leave them clean at the cold end of their LRU lists
// where evict() finds them for free. maxPages <= 0 means
// DefaultBgBatchPages. Returns the pages written; an error is also noted
// sticky for TakeBackgroundError, and failed frames stay dirty for retry.
func (p *Pool) BgWriterRound(maxPages int) (int, error) {
	if maxPages <= 0 {
		maxPages = DefaultBgBatchPages
	}
	// Never pin more than half the pool. The round holds its pins for the
	// whole batch write; uncapped, a round over a small pool can pin every
	// frame and starve foreground allocation into "all frames pinned"
	// failures until the batch completes.
	if half := p.cap / 2; maxPages > half {
		maxPages = half
	}
	if maxPages == 0 {
		return 0, nil
	}
	frames := p.collectColdDirty(maxPages)
	if len(frames) == 0 {
		return 0, nil
	}
	obsBgRounds.Inc()
	sortFramesByTag(frames)
	written, err := p.writeBackBatch(frames)
	for _, f := range frames {
		p.releaseToCold(f)
	}
	obsBgPages.Add(int64(written))
	if err != nil {
		obsBgErrors.Inc()
		p.noteBgErr(err)
	}
	return written, err
}

// collectColdDirty pins up to max dirty unpinned frames, scanning each
// partition's LRU list from the cold end. The frames are flagged evicting —
// the same private-pin protocol as a foreground eviction write-back — so
// DropRel waits them out instead of failing.
//
// A round costs O(dirty frames), not O(pool): a partition whose ndirty is 0
// is passed by without its lock, and a walk stops once it has seen ndirty
// dirty frames, so an idle round is one atomic load per partition. A stale
// count only makes the writer skip or stop early; eviction and checkpoints
// still write back whatever it missed.
func (p *Pool) collectColdDirty(max int) []*Frame {
	var frames []*Frame
	scanned := 0
	start := p.bgHand.Add(1)
	for i := range p.parts {
		if len(frames) >= max {
			break
		}
		part := p.parts[(start+uint64(i))&p.partMask]
		if part.ndirty.Load() <= 0 {
			continue
		}
		part.mu.Lock()
		left := part.ndirty.Load()
		for f := part.lru.back; f != nil && len(frames) < max && left > 0; {
			prev := f.lruPrev // pinning takes f off the list
			scanned++
			if f.dirty.Load() {
				left--
				part.pinLocked(f)
				f.evicting = true
				frames = append(frames, f)
			}
			f = prev
		}
		part.mu.Unlock()
	}
	if scanned > 0 {
		obsBgScanned.Add(int64(scanned))
	}
	return frames
}

// releaseToCold drops a round's private pin and, when the frame is otherwise
// unpinned, parks it at the cold end of the LRU list: a freshly cleaned
// frame is exactly what the next eviction should pick. Panics if the frame
// holds no pins — the caller must own the pin collectColdDirty took.
func (p *Pool) releaseToCold(f *Frame) {
	part := f.part
	part.mu.Lock()
	if f.pins <= 0 {
		part.mu.Unlock()
		panic("buffer: releaseToCold of unpinned frame " + f.tag.String())
	}
	f.pins--
	f.evicting = false
	if f.pins == 0 {
		part.lru.pushBackLocked(f)
	}
	part.mu.Unlock()
}

func sortFramesByTag(frames []*Frame) {
	sort.Slice(frames, func(i, j int) bool {
		ti, tj := frames[i].tag, frames[j].tag
		if ti.SM != tj.SM {
			return ti.SM < tj.SM
		}
		if ti.Rel != tj.Rel {
			return ti.Rel < tj.Rel
		}
		return ti.Blk < tj.Blk
	})
}

// bgWriteConcurrency bounds how many independent write runs writeBackBatch
// keeps in flight at once when a live (non-Manual) engine is attached. A
// batch of scattered dirty pages decomposes into many single-block runs;
// issuing them serially would cap the background writer at one device
// round-trip per block — exactly the latency the foreground path gets to pay
// in parallel — so the writer would always lose to concurrent mutators.
// Runs against the same relation still serialise on its extension lock.
const bgWriteConcurrency = 16

// writeBackBatch writes the pinned frames' pages, sorted by tag, honoring
// the same WAL contract as writeBack but amortised across the batch: one
// LogDirtyPages captures the unlogged dirty set, one Flush makes the whole
// round's ceiling durable before any home-location write, and contiguous
// blocks of a relation go out as single gather writes (independent runs
// concurrently, see bgWriteConcurrency — serial under a Manual engine or
// none, keeping deterministic harnesses deterministic). The caller releases
// the pins. On error the affected frames are re-marked dirty and the count
// of pages already written is returned.
func (p *Pool) writeBackBatch(frames []*Frame) (int, error) {
	if p.wal != nil {
		needBatch := false
		for _, f := range frames {
			if f.walDirty.Load() {
				needBatch = true
				break
			}
		}
		ceiling := wal.LSN(0)
		if needBatch {
			end, err := p.LogDirtyPages(0)
			if err != nil {
				return 0, err
			}
			ceiling = end
		}
		for _, f := range frames {
			if l := wal.LSN(f.walLSN.Load()); l > ceiling {
				ceiling = l
			}
		}
		if ceiling > 0 {
			if err := p.wal.Flush(ceiling); err != nil {
				return 0, err
			}
		}
	}
	type runSpan struct{ lo, hi int }
	var runs []runSpan
	for i := 0; i < len(frames); {
		j := i + 1
		for j < len(frames) &&
			frames[j].tag.SM == frames[i].tag.SM &&
			frames[j].tag.Rel == frames[i].tag.Rel &&
			frames[j].tag.Blk == frames[j-1].tag.Blk+1 {
			j++
		}
		runs = append(runs, runSpan{i, j})
		i = j
	}
	conc := 1
	if e := p.eng.Load(); e != nil && !e.cfg.Manual && len(runs) > 1 {
		conc = bgWriteConcurrency
		if conc > len(runs) {
			conc = len(runs)
		}
	}
	if conc == 1 {
		written := 0
		for _, r := range runs {
			n, err := p.writeRun(frames[r.lo:r.hi])
			written += n
			if err != nil {
				return written, err
			}
		}
		return written, nil
	}
	var (
		written atomic.Int64
		next    atomic.Int64
		errMu   sync.Mutex
		firstE  error
		wg      sync.WaitGroup
	)
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(runs) {
					return
				}
				n, err := p.writeRun(frames[runs[i].lo:runs[i].hi])
				written.Add(int64(n))
				if err != nil {
					errMu.Lock()
					if firstE == nil {
						firstE = err
					}
					errMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return int(written.Load()), firstE
}

// writeRun writes one contiguous same-relation run of pinned frames as a
// single gather write. Images are snapshotted into pooled buffers under each
// frame's shared content latch (clearing dirty/walDirty exactly like
// writeBack); a frame re-dirtied after the round's batch pre-log gets its own
// image appended and a narrower flush before the device write, preserving
// the flush-ceiling rule per frame.
func (p *Pool) writeRun(run []*Frame) (int, error) {
	tag0 := run[0].tag
	// Drain-gate sign-in, as in writeBack: the dirty bits cleared below must
	// not let a concurrent checkpoint sync the relation (and durably advance
	// the redo point) before these pages' device writes land.
	p.wbBegin(relKey{tag0.SM, tag0.Rel})
	defer p.wbEnd(relKey{tag0.SM, tag0.Rel})
	mgr, err := p.sw.Get(tag0.SM)
	if err != nil {
		return 0, err
	}
	ext := p.extLock(tag0.SM, tag0.Rel)
	ext.Lock()
	defer ext.Unlock()
	phys, err := mgr.NBlocks(tag0.Rel)
	if err != nil {
		return 0, err
	}
	if phys < tag0.Blk {
		// No-holes invariant, as in writeBack: materialise the gap with
		// zeros; each such block still has its own dirty frame whose later
		// write-back replaces them.
		for blk := phys; blk < tag0.Blk; blk++ {
			if err := mgr.WriteBlock(tag0.Rel, blk, zeroPage[:]); err != nil {
				return 0, err
			}
		}
	}
	redirty := func() {
		for _, f := range run {
			f.setDirty(true)
		}
	}
	imgs := make([][]byte, len(run))
	defer func() {
		for _, img := range imgs {
			if img != nil {
				pageBufs.Put((*[page.Size]byte)(img))
			}
		}
	}()
	var ceiling wal.LSN
	for k, f := range run {
		imgs[k] = getPageBuf()[:]
		if err := p.snapshotForWrite(f, imgs[k]); err != nil {
			redirty()
			return 0, err
		}
		if l := wal.LSN(f.walLSN.Load()); l > ceiling {
			ceiling = l
		}
	}
	if ceiling > 0 {
		if err := p.wal.Flush(ceiling); err != nil {
			redirty()
			return 0, err
		}
	}
	if err := mgr.WriteBlocks(tag0.Rel, tag0.Blk, imgs); err != nil {
		redirty()
		return 0, err
	}
	obsWritebacks.Add(int64(len(run)))
	if len(run) > 1 {
		obsBgBatches.Inc()
	}
	return len(run), nil
}

// Prefetch posts a read-ahead window of up to n blocks starting at blk.
// Advisory and non-blocking: with no engine (or prefetch disabled) it is a
// no-op, and a full queue drops the request. Safe to call from scan loops
// holding access-method locks — it never touches pool state.
func (p *Pool) Prefetch(sm storage.ID, rel storage.RelName, blk storage.BlockNum, n int) {
	e := p.eng.Load()
	if e == nil || !e.cfg.Prefetch || n <= 0 {
		return
	}
	if n > e.cfg.PrefetchWindow {
		n = e.cfg.PrefetchWindow
	}
	select {
	case e.pf <- prefetchReq{sm: sm, rel: rel, blk: blk, n: n}:
		obsPfPosted.Inc()
	default:
		obsPfDropped.Inc()
	}
}

// DrainPrefetch services every queued prefetch window synchronously — the
// manual-mode counterpart of the prefetcher goroutine, used by deterministic
// harnesses.
func (p *Pool) DrainPrefetch() {
	e := p.eng.Load()
	if e == nil {
		return
	}
	for {
		select {
		case req := <-e.pf:
			p.prefetchOne(req)
		default:
			return
		}
	}
}

// prefetchOne fills one read-ahead window: clamp to the device's physical
// length, skip resident blocks, and read each run of absent blocks with one
// batched device read. Every failure path just drops the window — prefetch
// is best-effort, and the foreground Get path has its own error handling.
func (p *Pool) prefetchOne(req prefetchReq) {
	start, end := req.blk, req.blk+storage.BlockNum(req.n)
	// A hot pool usually holds the whole range already: settle that from the
	// lookup tables before asking the device, whose Exists and NBlocks stat
	// the file and allocate.
	for start < end && p.resident(Tag{SM: req.sm, Rel: req.rel, Blk: start}) {
		obsPfSkipped.Inc()
		start++
	}
	if start == end {
		return
	}
	mgr, err := p.sw.Get(req.sm)
	if err != nil {
		return
	}
	if !mgr.Exists(req.rel) {
		return // dropped while queued
	}
	phys, err := mgr.NBlocks(req.rel)
	if err != nil {
		return
	}
	if end > phys {
		// Blocks past the physical end live only as dirty frames, which are
		// by definition resident already.
		end = phys
	}
	for start < end {
		if p.resident(Tag{SM: req.sm, Rel: req.rel, Blk: start}) {
			obsPfSkipped.Inc()
			start++
			continue
		}
		stop := start + 1
		for stop < end && !p.resident(Tag{SM: req.sm, Rel: req.rel, Blk: stop}) {
			stop++
		}
		p.prefetchRun(mgr, req.sm, req.rel, start, int(stop-start))
		start = stop
	}
}

// resident reports whether the tag currently has a frame, without pinning.
// The answer is advisory — installPrefetched re-checks under the lock.
func (p *Pool) resident(tag Tag) bool {
	part := p.part(tag)
	part.mu.Lock()
	_, ok := part.lookup[tag]
	part.mu.Unlock()
	return ok
}

// prefetchRun reads n adjacent absent blocks with one scatter read and
// installs the verified pages unpinned. Frames come from the free list or
// clean-victim eviction only: prefetch must never put a dirty write-back on
// its own path.
func (p *Pool) prefetchRun(mgr storage.Manager, sm storage.ID, rel storage.RelName, blk storage.BlockNum, n int) {
	frames := make([]*Frame, 0, n)
	for i := 0; i < n; i++ {
		f := p.allocCleanFrame()
		if f == nil {
			break // pool is all dirty or pinned; the writer will catch up
		}
		frames = append(frames, f)
	}
	if len(frames) == 0 {
		return
	}
	bufs := make([][]byte, len(frames))
	for i, f := range frames {
		bufs[i] = f.data
	}
	if err := mgr.ReadBlocks(rel, blk, bufs); err != nil {
		obsPfErrors.Inc()
		for _, f := range frames {
			p.putFree(f)
		}
		return
	}
	obsPfPages.Add(int64(len(frames)))
	cs := p.checksummer(sm, rel)
	for i, f := range frames {
		if cs != nil {
			if err := cs.Verify(f.data); err != nil {
				// Possibly a torn read racing an in-flight eviction write;
				// drop it and let a foreground Get retry with its own
				// transient-mismatch handling.
				obsPfErrors.Inc()
				p.putFree(f)
				continue
			}
		}
		p.installPrefetched(Tag{SM: sm, Rel: rel, Blk: blk + storage.BlockNum(i)}, f)
	}
}

// allocCleanFrame returns an unreferenced frame without ever writing back a
// dirty page: free list, pool growth, or a clean LRU victim. nil when none
// is available.
func (p *Pool) allocCleanFrame() *Frame {
	if f := p.takeFree(); f != nil {
		return f
	}
	for {
		n := p.allocated.Load()
		if int(n) >= p.cap {
			break
		}
		if p.allocated.CompareAndSwap(n, n+1) {
			return &Frame{pool: p, data: make(page.Page, page.Size)}
		}
	}
	return p.evictCleanOnly()
}

// evictCleanOnly reclaims the coldest clean unpinned frame it can find,
// never writing back. Returns nil when every unpinned frame is dirty.
func (p *Pool) evictCleanOnly() *Frame {
	start := p.evictHand.Add(1)
	for i := range p.parts {
		part := p.parts[(start+uint64(i))&p.partMask]
		part.mu.Lock()
		for f := part.lru.back; f != nil; f = f.lruPrev {
			if !f.dirty.Load() {
				part.lru.removeLocked(f)
				delete(part.lookup, f.tag)
				part.mu.Unlock()
				obsEvictions.Inc()
				return f
			}
		}
		part.mu.Unlock()
	}
	return nil
}

// installPrefetched publishes a prefetched page unpinned at the warm end of
// its LRU list. The nbMu hold serialises against DropRel: a relation dropped
// while the read was in flight must not reappear as a ghost page, so the
// install happens only while the pool still tracks the relation. A lost race
// against a foreground install discards the duplicate.
func (p *Pool) installPrefetched(tag Tag, f *Frame) {
	p.nbMu.Lock()
	if _, ok := p.nblocks[relKey{tag.SM, tag.Rel}]; !ok {
		p.nbMu.Unlock()
		p.putFree(f)
		return
	}
	part := p.part(tag)
	part.mu.Lock()
	if _, ok := part.lookup[tag]; ok {
		part.mu.Unlock()
		p.nbMu.Unlock()
		obsPfSkipped.Inc()
		p.putFree(f)
		return
	}
	f.tag = tag
	f.part = part
	f.pins = 0
	f.evicting = false
	f.setDirty(false)
	f.walDirty.Store(false)
	f.walLSN.Store(0)
	part.lookup[tag] = f
	part.lru.pushFrontLocked(f)
	part.mu.Unlock()
	p.nbMu.Unlock()
	obsPfInstalled.Inc()
}

// FlushAllIncremental is the incremental form of FlushAll+SyncAll — the data
// half of a checkpoint, spread into slices. Relations are walked in sorted
// order (the crash sweep's determinism contract); each relation's dirty
// pages are written back in ascending block order through the batched
// write-back path (gather writes over contiguous runs, one WAL
// flush-ceiling per slice) at most slicePages at a time, with the scheduler
// yielded between slices so foreground work interleaves; the relation is
// synced as soon as its own pages are down, instead of one giant SyncAll
// stall after everything. slicePages <= 0 means
// DefaultCheckpointSlicePages.
func (p *Pool) FlushAllIncremental(slicePages int) error {
	if slicePages <= 0 {
		slicePages = DefaultCheckpointSlicePages
	}
	p.nbMu.Lock()
	keys := make([]relKey, 0, len(p.nblocks))
	for key := range p.nblocks {
		keys = append(keys, key)
	}
	p.nbMu.Unlock()
	sortRelKeys(keys)
	for _, key := range keys {
		frames := p.pinDirty(key.sm, key.rel)
		sort.Slice(frames, func(i, j int) bool { return frames[i].tag.Blk < frames[j].tag.Blk })
		var first error
		for len(frames) > 0 {
			n := slicePages
			if n > len(frames) {
				n = len(frames)
			}
			slice := frames[:n]
			frames = frames[n:]
			if first == nil {
				// A frame may have gone clean since it was pinned (a writer
				// round got there first); writeBackBatch would rewrite it
				// harmlessly, but skipping keeps device traffic honest. live
				// must NOT alias slice — the release loop below still needs
				// slice's original entries.
				live := make([]*Frame, 0, len(slice))
				for _, f := range slice {
					if f.dirty.Load() {
						live = append(live, f)
					}
				}
				if len(live) > 0 {
					if _, err := p.writeBackBatch(live); err != nil {
						first = err
					}
				}
			}
			for _, f := range slice {
				f.Release()
			}
			if len(frames) > 0 {
				runtime.Gosched()
			}
		}
		if first != nil {
			return first
		}
		mgr, err := p.sw.Get(key.sm)
		if err != nil {
			return err
		}
		if !mgr.Exists(key.rel) {
			continue
		}
		// Drain in-flight write-backs before the per-relation sync, exactly
		// as SyncAll does: a page mid-write-back is invisible to pinDirty
		// but not yet on the device, and the checkpoint record this flush
		// precedes will skip its logged image on replay.
		p.wbWaitRel(key)
		if err := mgr.Sync(key.rel); err != nil {
			return fmt.Errorf("buffer: sync %s: %w", key.rel, err)
		}
	}
	return nil
}
