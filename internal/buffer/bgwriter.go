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
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"postlob/internal/daemon"
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
	obsZeroFill   = obs.NewCounter("buffer.zero_fill_blocks")
	obsEvictDirty = obs.NewCounter("buffer.evict.dirty_foreground")

	obsPfPosted    = obs.NewCounter("buffer.prefetch.posted")
	obsPfDropped   = obs.NewCounter("buffer.prefetch.dropped")
	obsPfResident  = obs.NewCounter("buffer.prefetch.resident_windows")
	obsPfPages     = obs.NewCounter("buffer.prefetch.pages_read")
	obsPfInstalled = obs.NewCounter("buffer.prefetch.installed")
	obsPfSkipped   = obs.NewCounter("buffer.prefetch.skipped")
	obsPfErrors    = obs.NewCounter("buffer.prefetch.errors")
)

// Engine tuning.
const (
	// bgInterval is the background writer's clock tick.
	bgInterval = 2 * time.Millisecond
	// bgBatchPages caps pages written back per writer round.
	bgBatchPages = 64
	// bgColdShare sets a writer round's window: the coldest 1/bgColdShare
	// of each partition's LRU list, rounded up (see collectColdDirty).
	bgColdShare = 4
	// PrefetchWindow caps blocks per posted prefetch window; scans post
	// windows of exactly this many blocks.
	PrefetchWindow = 16

	// prefetchQueueLen bounds pending prefetch windows; posts beyond it are
	// dropped (prefetch is advisory).
	prefetchQueueLen = 64
)

// EngineConfig configures the pool's background I/O engine.
type EngineConfig struct {
	// Manual spawns no goroutines: the harness drives BgWriterRound and
	// DrainPrefetch itself, keeping a seeded workload's device-operation
	// sequence deterministic while still exercising the engine code paths.
	Manual bool
}

// engine is the running instance behind a Pool's StartEngine call: the
// writer runs on its tick and on eviction's kicks, the prefetcher on the
// kick that follows each posted window.
type engine struct {
	manual     bool
	writer     *daemon.Loop
	prefetcher *daemon.Loop
	pf         chan prefetchReq // pending prefetch windows

	// scratch is the drain's reusable run state. A drain takes it and puts
	// it back, so the prefetcher reads every run without allocating, and a
	// harness drain racing it works on a scratch of its own.
	scratch atomic.Pointer[prefetchScratch]
}

// prefetchScratch holds one prefetch run's frames and their page buffers.
type prefetchScratch struct {
	frames []*Frame
	bufs   [][]byte
}

type prefetchReq struct {
	rel *Rel
	blk storage.BlockNum
	n   int
}

// StartEngine attaches and starts a background I/O engine. Call after
// recovery and AttachWAL (write-backs must honor the flush ceiling from the
// first round) and before the pool handles foreground load. Panics if an
// engine is already attached — lifecycle is owned by whoever opened the pool.
func (p *Pool) StartEngine(cfg EngineConfig) {
	// Errors are noted in the pool's write-back error slot by the round
	// (surfaced at the next checkpoint) and the frames stay dirty, so the
	// loop simply goes around and retries on its next tick.
	write := func() error {
		_, _ = p.BgWriterRound(bgBatchPages)
		return nil
	}
	drain := func() error {
		p.DrainPrefetch()
		return nil
	}
	e := &engine{manual: cfg.Manual, pf: make(chan prefetchReq, prefetchQueueLen)}
	if cfg.Manual {
		e.writer, e.prefetcher = daemon.Manual(write), daemon.Manual(drain)
	} else {
		e.writer, e.prefetcher = daemon.Start(write, bgInterval), daemon.Start(drain, 0)
	}
	if !p.eng.CompareAndSwap(nil, e) {
		e.writer.Stop()
		e.prefetcher.Stop()
		panic("buffer: engine already started")
	}
}

// StopEngine detaches the engine and waits for its goroutines to exit. Dirty
// pages the writer had not reached stay dirty — the closing checkpoint
// flushes them — and a write-back error, if any, remains readable via
// TakeBackgroundError. Safe to call with no engine attached.
func (p *Pool) StopEngine() {
	e := p.eng.Swap(nil)
	if e == nil {
		return
	}
	e.writer.Stop()
	e.prefetcher.Stop()
}

// kickBgWriter nudges the writer from the foreground path. Non-blocking: at
// most one nudge is ever pending. Callers must not hold a partition latch.
func (p *Pool) kickBgWriter() {
	if e := p.eng.Load(); e != nil && e.writer.Kick() {
		obsBgWakeups.Inc()
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
// maxPages dirty unpinned frames from the cold ends of the LRU lists (see
// collectColdDirty for how far from the ends), write them back (batch
// pre-logging and one WAL flush cover the whole round, gather writes cover
// contiguous runs), and leave them clean at the cold end of their LRU lists
// where evict() finds them for free. maxPages <= 0 means the writer's own
// batch of 64. Returns the pages written; an error is also noted
// sticky for TakeBackgroundError, and failed frames stay dirty for retry.
func (p *Pool) BgWriterRound(maxPages int) (int, error) {
	if maxPages <= 0 {
		maxPages = bgBatchPages
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
	sortFrames(frames)
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

// collectColdDirty pins up to max dirty unpinned frames from the cold end of
// each partition's LRU list: only from its coldest quarter, rounded up
// (bgColdShare). The frames are flagged evicting — the same private-pin
// protocol as a foreground eviction write-back — so a drop waits them out
// instead of failing.
//
// The window is what makes a write-back a page's last one before eviction.
// A frame in the warm part of its list is likely to be dirtied again — the
// no-overwrite store modifies a chunk page three times, at insert, at the
// xmax stamp and at vacuum's reclaim — and writing it each time would send
// it to the device up to three times where one write at the next checkpoint
// or on its way out of the pool does. Eviction reaches the cold quarter
// first, so that is the only part a writer round needs clean.
//
// A round costs O(dirty frames), not O(pool): a partition whose ndirty is 0
// is passed by without its lock, and a walk stops at the end of the window
// or once it has seen ndirty dirty frames, so an idle round is one atomic
// load per partition. A stale count only makes the writer skip or stop
// early; eviction and checkpoints still write back whatever it missed.
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
		window := (part.lru.n + bgColdShare - 1) / bgColdShare
		for f := part.lru.back; f != nil && window > 0 && len(frames) < max && left > 0; window-- {
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

// releaseToCold drops a write-back's private pin and, when the frame is
// otherwise unpinned, parks it at the cold end of the LRU list: a freshly
// cleaned frame is exactly what the next eviction should pick. Panics if the
// frame holds no pins — the caller must own the pin collectColdDirty or
// pinGap took.
func (p *Pool) releaseToCold(f *Frame) {
	part := f.part
	part.mu.Lock()
	if f.pins <= 0 {
		part.mu.Unlock()
		panic("buffer: releaseToCold of unpinned frame " + f.Tag().String())
	}
	f.pins--
	f.evicting = false
	last := f.pins == 0
	if last {
		part.lru.pushBackLocked(f)
	}
	part.mu.Unlock()
	if last {
		p.noteUnpin()
	}
}

// sortFrames orders frames by relation (cmpRel) and block: the order every
// write-back and log append follows.
func sortFrames(frames []*Frame) {
	slices.SortFunc(frames, func(a, b *Frame) int {
		if c := cmpRel(a.rel, b.rel); c != 0 {
			return c
		}
		return cmp.Compare(a.blk, b.blk)
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

// writeBackBatch is the only way a page leaves the pool: writer rounds,
// foreground eviction of a dirty victim, DropRel and FlushRel all hand it
// their pinned frames, sorted (sortFrames); the caller releases the pins.
//
// Under a WAL, a frame about to be written may hold an image no commit has
// logged, and that image is about to become device-visible. One page's
// image is not enough: the page may reference sibling dirty pages (a B-tree
// node naming a heap block, a segment record naming a byte-store block)
// dirtied by the same operations and still unlogged, and replaying the one
// image without the others would resurrect a mutually inconsistent page set.
// So one LogDirtyPages logs the entire unlogged dirty set — a mini fuzzy
// checkpoint — and one Flush makes the log durable through the end of that
// batch and every frame's own newest image (the flush ceiling) before any
// home-location write. Pages re-dirtied after the batch get their own image
// in writeRun.
//
// Contiguous blocks of a relation go out as single gather writes
// (independent runs concurrently, see bgWriteConcurrency — serial under a
// Manual engine or none, keeping deterministic harnesses deterministic). On
// error the affected frames are re-marked dirty and the count of pages
// already written is returned. The batch's frames and the gap frames its
// runs pin (pinGap) stay within half the pool together.
func (p *Pool) writeBackBatch(frames []*Frame) (int, error) {
	var gapPins atomic.Int64
	gapPins.Store(int64(max(0, p.cap/2-len(frames))))
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
			frames[j].rel == frames[i].rel &&
			frames[j].blk == frames[j-1].blk+1 {
			j++
		}
		runs = append(runs, runSpan{i, j})
		i = j
	}
	conc := 1
	if e := p.eng.Load(); e != nil && !e.manual && len(runs) > 1 {
		conc = bgWriteConcurrency
		if conc > len(runs) {
			conc = len(runs)
		}
	}
	if conc == 1 {
		written := 0
		for _, r := range runs {
			n, err := p.writeRun(frames[r.lo:r.hi], &gapPins)
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
				n, err := p.writeRun(frames[runs[i].lo:runs[i].hi], &gapPins)
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
// single gather write; it is the only code that clears a dirty bit on the
// way to the device. The extension lock serialises no-holes device growth.
// Images are snapshotted into pooled buffers under each frame's shared
// content latch, so a concurrent exclusive-latch mutator cannot tear a
// written page; a frame re-dirtied after the batch pre-log gets its own
// image appended and a narrower flush before the device write, preserving
// the flush-ceiling rule per frame.
//
// The device cannot have holes, so a run that starts past the device's end
// also writes the gap below it, in the same gather write. Every gap block
// still has a frame in the pool (a block reaches the device only through
// here), so the gap goes out as those frames' real pages: a page written as
// zeros would be written again with its real bytes later. A gap frame is
// taken only when it is unpinned (pinGap), its shared latch is free at once
// (TryRLock, held for the copy) and, under a WAL, it needs no image of its
// own; any other gap block is written as a zero page
// (buffer.zero_fill_blocks) and its frame's own write-back replaces it.
// gapPins is how many more gap frames the batch may pin.
func (p *Pool) writeRun(run []*Frame, gapPins *atomic.Int64) (int, error) {
	r, blk0 := run[0].rel, run[0].blk
	// Drain-gate sign-in before the dirty bits are cleared below: a
	// concurrent FlushRel must not sync the relation (and a checkpoint
	// durably advance the redo point) while these pages are neither visible
	// to its sweep nor on the device yet.
	p.wbBegin(r)
	defer p.wbEnd(r)
	mgr, err := p.sw.Get(r.sm)
	if err != nil {
		return 0, err
	}
	r.ext.Lock()
	phys, err := mgr.NBlocks(r.name)
	gapLo := phys
	var gap []*Frame
	if err == nil && phys < blk0 {
		// Partition latches rank above the extension lock: pin the gap's
		// frames with it dropped, then read the device's length again. It
		// can only have grown, toward blk0.
		r.ext.Unlock()
		gap = p.pinGap(r, gapLo, blk0, gapPins)
		defer p.releaseGap(gap, gapPins)
		r.ext.Lock()
		phys, err = mgr.NBlocks(r.name)
	}
	defer r.ext.Unlock()
	if err != nil {
		return 0, err
	}
	lo := min(phys, blk0)
	imgs := make([][]byte, int(blk0-lo)+len(run))
	var taken []*Frame // gap frames whose pages this write carries
	redirty := func() {
		for _, f := range append(taken, run...) {
			f.setDirty(true)
			if p.wal == nil {
				f.walDirty.Store(true) // the device never got the page
			}
		}
	}
	defer func() {
		for _, img := range imgs {
			if img != nil && &img[0] != &zeroPage[0] { // zeroPage is shared
				pageBufs.Put((*[page.Size]byte)(img))
			}
		}
	}()
	var ceiling wal.LSN
	for blk := lo; blk < blk0; blk++ {
		k := int(blk - lo)
		imgs[k] = zeroPage[:]
		var f *Frame
		if blk >= gapLo {
			f = gap[blk-gapLo]
		}
		if f == nil || !f.latch.TryRLock() {
			obsZeroFill.Inc()
			continue
		}
		if p.wal != nil && f.walDirty.Load() {
			f.latch.RUnlock()
			obsZeroFill.Inc()
			continue
		}
		imgs[k] = getPageBuf()[:]
		err := p.snapshotLatched(f, imgs[k])
		f.latch.RUnlock()
		if err != nil {
			redirty()
			return 0, err
		}
		taken = append(taken, f)
		if l := wal.LSN(f.walLSN.Load()); l > ceiling {
			ceiling = l
		}
	}
	for i, f := range run {
		k := int(blk0-lo) + i
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
	err = mgr.WriteBlocks(r.name, lo, imgs)
	// Whatever the outcome, part of the write may be on the device now, and
	// only a sync makes it durable. Marked again (wbBegin marked it first)
	// after the write returns and before wbEnd: a flush that clears the mark
	// after draining the gate then syncs this write, and one that cleared it
	// while the write was in flight leaves the mark for the next flush.
	r.unsynced.Store(true)
	if err != nil {
		redirty()
		return 0, err
	}
	written := len(run) + len(taken)
	obsWritebacks.Add(int64(written))
	if len(imgs) > 1 {
		obsBgBatches.Inc()
	}
	return written, nil
}

// pinGap pins the resident, unpinned frames of r's blocks from lo up to hi,
// for writeRun to write with the run starting at hi. They are flagged
// evicting, as a writer round's frames are, so a drop waits them out. The
// result is indexed by block - lo, nil where no frame was pinned. Each pin
// takes one from budget, and none is taken once it is spent: the batch
// holds its own frames' pins too, and together they stay within half the
// pool (writeBackBatch).
func (p *Pool) pinGap(r *Rel, lo, hi storage.BlockNum, budget *atomic.Int64) []*Frame {
	gap := make([]*Frame, hi-lo)
	for i := 0; i < len(gap) && budget.Load() > 0; i++ {
		blk := lo + storage.BlockNum(i)
		key := r.key(blk)
		part := p.part(r, blk)
		part.mu.Lock()
		// A budget a concurrent run overdraws stays below zero: fewer pins.
		if f, ok := part.lookup[key]; ok && f.pins == 0 && budget.Add(-1) >= 0 {
			part.pinLocked(f)
			f.evicting = true
			gap[i] = f
		}
		part.mu.Unlock()
	}
	return gap
}

// releaseGap drops pinGap's pins and returns them to budget.
func (p *Pool) releaseGap(gap []*Frame, budget *atomic.Int64) {
	for _, f := range gap {
		if f != nil {
			p.releaseToCold(f)
			budget.Add(1)
		}
	}
}

// Prefetch posts a read-ahead window of up to n blocks starting at blk.
// Advisory and non-blocking: with no engine it is a no-op, and a full queue
// drops the request. A window whose first and last blocks, clamped to the
// relation's length, are both resident is not posted at all (it is counted
// in buffer.prefetch.resident_windows): a hot reader would otherwise wake
// the prefetcher only to find its window in the pool, under the partition
// latches the reader itself takes. A block missing in between is the
// foreground Get's to read. Safe to call from scan loops holding
// access-method locks, but not under a frame latch: the check takes the
// descriptor's length and two partition latches. The window is queued
// before the prefetcher is kicked, so a round that the kick buys always
// sees it.
func (r *Rel) Prefetch(blk storage.BlockNum, n int) {
	e := r.pool.eng.Load()
	if e == nil || n <= 0 {
		return
	}
	n = min(n, PrefetchWindow)
	nb, err := r.NBlocks()
	if err != nil || blk >= nb {
		return // dropped, or nothing there to read ahead
	}
	if last := min(blk+storage.BlockNum(n), nb) - 1; r.pool.resident(r, blk) && r.pool.resident(r, last) {
		obsPfResident.Inc()
		return
	}
	select {
	case e.pf <- prefetchReq{rel: r, blk: blk, n: n}:
		obsPfPosted.Inc()
		e.prefetcher.Kick()
	default:
		obsPfDropped.Inc()
	}
}

// DrainPrefetch services every queued prefetch window synchronously: the
// prefetcher's round, and the manual-mode step deterministic harnesses call.
func (p *Pool) DrainPrefetch() {
	e := p.eng.Load()
	if e == nil {
		return
	}
	s := e.scratch.Swap(nil)
	if s == nil {
		s = new(prefetchScratch)
	}
	defer e.scratch.Store(s)
	for {
		select {
		case req := <-e.pf:
			p.prefetchOne(s, req)
		default:
			return
		}
	}
}

// prefetchOne fills one read-ahead window: clamp to the device's physical
// length, skip resident blocks, and read each run of absent blocks with one
// batched device read. Every failure path just drops the window — prefetch
// is best-effort, and the foreground Get path has its own error handling.
func (p *Pool) prefetchOne(s *prefetchScratch, req prefetchReq) {
	r := req.rel
	start, end := req.blk, req.blk+storage.BlockNum(req.n)
	// The poster found an end of the window absent, but the reader's own
	// Gets may have filled its head since: settle that from the lookup
	// tables before asking the device, whose Exists and NBlocks stat the
	// file and allocate.
	for start < end && p.resident(r, start) {
		obsPfSkipped.Inc()
		start++
	}
	if start == end {
		return
	}
	mgr, err := p.sw.Get(r.sm)
	if err != nil {
		return
	}
	if r.dropped.Load() || !mgr.Exists(r.name) {
		return // dropped while queued
	}
	phys, err := mgr.NBlocks(r.name)
	if err != nil {
		return
	}
	if end > phys {
		// Blocks past the physical end live only as dirty frames, which are
		// by definition resident already.
		end = phys
	}
	for start < end {
		if p.resident(r, start) {
			obsPfSkipped.Inc()
			start++
			continue
		}
		stop := start + 1
		for stop < end && !p.resident(r, stop) {
			stop++
		}
		p.prefetchRun(s, mgr, r, start, int(stop-start))
		start = stop
	}
}

// resident reports whether r's block blk currently has a frame, without
// pinning. The answer is advisory — installPrefetched re-checks under the
// lock.
func (p *Pool) resident(r *Rel, blk storage.BlockNum) bool {
	part := p.part(r, blk)
	part.mu.Lock()
	_, ok := part.lookup[r.key(blk)]
	part.mu.Unlock()
	return ok
}

// prefetchRun reads n adjacent absent blocks with one scatter read and
// installs the verified pages unpinned. Frames come from the free list or
// clean-victim eviction only: prefetch must never put a dirty write-back on
// its own path. The run's frame and buffer lists live in s.
func (p *Pool) prefetchRun(s *prefetchScratch, mgr storage.Manager, r *Rel, blk storage.BlockNum, n int) {
	frames := s.frames[:0]
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
	bufs := s.bufs[:0]
	for _, f := range frames {
		bufs = append(bufs, f.data)
	}
	s.frames, s.bufs = frames, bufs // keep what they grew to for the next run
	if err := mgr.ReadBlocks(r.name, blk, bufs); err != nil {
		obsPfErrors.Inc()
		for _, f := range frames {
			p.putFree(f)
		}
		return
	}
	obsPfPages.Add(int64(len(frames)))
	cs := r.checksummer()
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
		p.installPrefetched(r, blk+storage.BlockNum(i), f)
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
				delete(part.lookup, f.key())
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
// its LRU list. The nbMu hold serialises against Unlink: a relation dropped
// while the read was in flight must not reappear as a ghost page, so the
// install happens only while its descriptor is live. A lost race against a
// foreground install discards the duplicate.
func (p *Pool) installPrefetched(r *Rel, blk storage.BlockNum, f *Frame) {
	p.nbMu.Lock()
	if r.dropped.Load() {
		p.nbMu.Unlock()
		p.putFree(f)
		return
	}
	key := r.key(blk)
	part := p.part(r, blk)
	part.mu.Lock()
	if _, ok := part.lookup[key]; ok {
		part.mu.Unlock()
		p.nbMu.Unlock()
		obsPfSkipped.Inc()
		p.putFree(f)
		return
	}
	f.installLocked(r, blk, part)
	part.lookup[key] = f
	part.lru.pushFrontLocked(f)
	part.mu.Unlock()
	p.nbMu.Unlock()
	obsPfInstalled.Inc()
}
