// Package wal is the write-ahead log: an append-only, CRC-protected,
// segment-rotating redo log that decouples commit durability from data-page
// flushing. The paper's storage manager is no-overwrite with force-at-commit
// durability — every commit flushes and syncs every relation — which
// Hellerstein's retrospective singles out as its fatal performance
// liability. The WAL replaces that discipline: a commit appends the
// transaction's dirty page images plus one commit record and waits for a
// single group fsync; data pages reach their home locations whenever the
// buffer pool finds it convenient, under the flush-ceiling rule (a page's
// log record must be durable before the page itself is written).
//
// Layout: the log lives on a storage.Manager as fixed-size segment relations
// ("pg_wal_00000000", ...) of 8 KiB blocks, plus a tiny double-slotted
// control block ("pg_wal_ctl") naming the oldest live segment. Routing the
// log through the storage layer means the crash-simulation harness's
// volatile write caches and torn-write injection apply to the WAL itself —
// torn log tails are part of the tested state space, not a blind spot.
//
// An LSN is a flat byte position in the log: segment*segmentBytes + offset.
// Records never span segments (the tail of a segment is zero-padded and the
// writer rotates); they freely span blocks within a segment. Within a
// block, appends only ever place bytes after previously durable ones — the
// durable prefix of a block is byte-identical in every later image of that
// block — so a torn rewrite of a tail block can only damage bytes no commit
// was ever told were durable. Recovery truncates exactly that damage.
//
// Group commit: Append only copies bytes into the in-memory tail under a
// mutex; Flush parks the caller until the dedicated flusher goroutine has
// pushed the tail through the storage manager and synced it. Every
// committer that appends while one fsync is in flight is satisfied by the
// next single fsync, which is what makes many concurrent small commits cost
// one device sync instead of one each.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"postlob/internal/obs"
	"postlob/internal/page"
	"postlob/internal/storage"
)

// WAL metrics, registered once at package init. wal.group_size is a count
// histogram, not a latency histogram: each observation is the number of
// parked committers one fsync satisfied, recorded as that many nanoseconds,
// so its buckets read directly as group sizes. The realized batching factor
// is wal.group_commit_txns / wal.fsyncs.
var (
	obsAppends     = obs.NewCounter("wal.appends")
	obsAppendBytes = obs.NewCounter("wal.append_bytes")
	obsPageImages  = obs.NewCounter("wal.page_images")
	obsHoleBytes   = obs.NewCounter("wal.image_hole_bytes")
	obsCommitRecs  = obs.NewCounter("wal.commit_records")
	obsAbortRecs   = obs.NewCounter("wal.abort_records")
	obsCkptRecs    = obs.NewCounter("wal.checkpoint_records")
	obsUnlinkRecs  = obs.NewCounter("wal.unlink_records")
	obsFsyncs      = obs.NewCounter("wal.fsyncs")
	obsGroupTxns   = obs.NewCounter("wal.group_commit_txns")
	obsGroupSize   = obs.NewHistogram("wal.group_size")
	obsFlushLat    = obs.NewTimer("wal.flush_latency")
	obsRotations   = obs.NewCounter("wal.segment_rotations")
	obsTruncations = obs.NewCounter("wal.truncations")
	obsTruncBytes  = obs.NewCounter("wal.truncated_bytes")
	obsReplayRecs  = obs.NewCounter("wal.recovery.records_replayed")
	obsTornTail    = obs.NewCounter("wal.recovery.torn_tail_bytes")
)

// LSN is a log sequence number: a flat byte position in the log, segment
// index times segment size plus the in-segment offset. 0 is "no position" —
// the first record starts after segment 0's header.
type LSN uint64

// Errors returned by the log.
var (
	// ErrClosed is returned by operations on a closed log.
	ErrClosed = errors.New("wal: log closed")
	// ErrCorrupt reports log damage that cannot be a torn tail: a bad
	// segment header or invalid records in a segment the writer had already
	// rotated past. Rotation syncs a segment in full before any byte of its
	// successor can become durable, so mid-log damage is never crash debris.
	ErrCorrupt = errors.New("wal: corrupt log")
)

// Segment header: magic u32, format version u32, segment index u64. No
// record ever starts at offset 0 of a segment.
const (
	segMagic   = 0x4C415750 // "PWAL"
	segVersion = 1
	segHdrLen  = 16
)

// Control block slot: magic u32, CRC u32 (over the remaining 24 bytes),
// sequence u64, first live segment u64, segment size in blocks u64. Two
// slots are written alternately, and only the slot being updated changes
// between images of the control block, so a torn control write always
// leaves the other slot intact; the valid slot with the highest sequence
// wins. The segment size is persisted because every LSN is segment index
// times segment size plus offset: reopening a log under a different size
// would silently reinterpret every position in it.
const (
	ctlMagic   = 0x4354574C // "LWTC"
	ctlSlotLen = 32
	ctlSlots   = 2
)

// Config parameterises Open.
type Config struct {
	// Prefix names the log's relations (default "pg_wal").
	Prefix string
	// SegBlocks is the segment size in 8 KiB blocks (default 256, i.e.
	// 2 MiB). Minimum 2: a segment must fit its header plus one maximal
	// record (a page image and its framing).
	SegBlocks int
}

// waiter is one parked Flush call.
type waiter struct{ lsn LSN }

// Info is a point-in-time snapshot of the log's position, for shells and
// diagnostics.
type Info struct {
	FirstSeg uint64 // oldest live segment
	Seg      uint64 // tail segment
	Durable  LSN    // LSN through which the log is durable
	End      LSN    // LSN one past the last appended byte
}

// Log is an open write-ahead log. All methods are safe for concurrent use.
//
// Lock order: mu before ioMu. The flusher goroutine acquires them in
// sequence, never nested (ioMu is always released before mu is retaken), so
// a checkpoint holding mu may safely wait for ioMu.
type Log struct {
	mgr       storage.Manager
	prefix    string
	segBlocks int
	segBytes  uint64

	mu   sync.Mutex
	cond *sync.Cond // signalled when durable advances, ioErr sets, or the log closes

	seg        uint64    // guarded by mu; tail segment index
	img        []byte    // guarded by mu; full tail-segment image, len == segBytes
	appendOff  uint64    // guarded by mu; img bytes holding records (header included)
	durableOff uint64    // guarded by mu; img bytes durably on the device
	durable    LSN       // guarded by mu; flat durable LSN
	firstSeg   uint64    // guarded by mu; oldest live segment
	ctlSeq     uint64    // guarded by mu; last control-block sequence written
	lastRedo   LSN       // guarded by mu; redo point of the newest checkpoint record
	hasCkpt    bool      // guarded by mu; a checkpoint record exists in the live log
	scanEnd    LSN       // guarded by mu; durable tail found by Open's scan (Replay's bound)
	ioErr      error     // guarded by mu; sticky flush failure
	closing    bool      // guarded by mu; a Close call owns the shutdown
	closed     bool      // guarded by mu
	waiting    []*waiter // guarded by mu

	// slots holds each registered replication slot's restart LSN; checkpoint
	// truncation never drops a segment at or above the minimum (ship.go).
	slots map[string]LSN // guarded by mu
	// notify is the durable-advance watcher list (ship.go).
	notify []chan<- struct{} // guarded by mu

	// ioMu serialises device I/O on the segment and control relations.
	ioMu  sync.Mutex
	ioVec [][]byte        // guarded by ioMu; writeRange's reused block vector
	ioSeg uint64          // guarded by ioMu; segment ioRel names
	ioRel storage.RelName // guarded by ioMu; cached segRel(ioSeg), "" before the first write

	// flushBuf is the flusher's own copy of the unflushed tail, reused from
	// one flushOnce to the next. Only the flusher goroutine touches it.
	flushBuf []byte

	kick        chan struct{}
	stop        chan struct{}
	flusherDone chan struct{}
}

func (l *Log) segRel(seg uint64) storage.RelName {
	return storage.RelName(fmt.Sprintf("%s_%08d", l.prefix, seg))
}

func (l *Log) ctlRel() storage.RelName {
	return storage.RelName(l.prefix + "_ctl")
}

// Open opens (or creates) the log stored on mgr, scanning it from the
// oldest live segment: records are CRC-validated, a torn tail is truncated
// — in memory and on the device — and the durable end becomes the append
// position. Call Replay before appending to apply what the scan found.
func Open(mgr storage.Manager, cfg Config) (*Log, error) {
	if cfg.Prefix == "" {
		cfg.Prefix = "pg_wal"
	}
	cfgExplicit := cfg.SegBlocks != 0
	if cfg.SegBlocks == 0 {
		cfg.SegBlocks = 256
	}
	if cfg.SegBlocks < 2 {
		return nil, fmt.Errorf("wal: SegBlocks %d below minimum 2", cfg.SegBlocks)
	}
	l := &Log{
		mgr:         mgr,
		prefix:      cfg.Prefix,
		segBlocks:   cfg.SegBlocks,
		segBytes:    uint64(cfg.SegBlocks) * page.Size,
		kick:        make(chan struct{}, 1),
		stop:        make(chan struct{}),
		flusherDone: make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.mu)
	if err := l.recoverStateLocked(cfgExplicit); err != nil {
		return nil, err
	}
	go l.flusher()
	return l, nil
}

// --- control block ----------------------------------------------------------

// readCtl returns the oldest live segment and the persisted segment size
// from the control block. ok is false when no valid control slot exists — a
// fresh log, or one that crashed before its first control write became
// durable.
func (l *Log) readCtl() (firstSeg, seq, segBlocks uint64, ok bool, err error) {
	rel := l.ctlRel()
	if !l.mgr.Exists(rel) {
		return 0, 0, 0, false, nil
	}
	n, err := l.mgr.NBlocks(rel)
	if err != nil {
		return 0, 0, 0, false, err
	}
	if n == 0 {
		return 0, 0, 0, false, nil // created but never durably written
	}
	buf := make([]byte, page.Size)
	if err := l.mgr.ReadBlock(rel, 0, buf); err != nil {
		return 0, 0, 0, false, fmt.Errorf("wal: read control block: %w", err)
	}
	for i := 0; i < ctlSlots; i++ {
		slot := buf[i*ctlSlotLen : (i+1)*ctlSlotLen]
		if binary.LittleEndian.Uint32(slot) != ctlMagic {
			continue
		}
		if binary.LittleEndian.Uint32(slot[4:]) != crc32.ChecksumIEEE(slot[8:]) {
			continue
		}
		s := binary.LittleEndian.Uint64(slot[8:])
		if !ok || s > seq {
			seq = s
			firstSeg = binary.LittleEndian.Uint64(slot[16:])
			segBlocks = binary.LittleEndian.Uint64(slot[24:])
			ok = true
		}
	}
	return firstSeg, seq, segBlocks, ok, nil
}

// writeCtlLocked durably records firstSeg as the oldest live segment,
// alternating between the two control slots so a torn write never destroys
// the only valid copy. Caller holds l.mu.
func (l *Log) writeCtlLocked(firstSeg uint64) error {
	rel := l.ctlRel()
	buf := make([]byte, page.Size)
	exists := l.mgr.Exists(rel)
	if exists {
		n, err := l.mgr.NBlocks(rel)
		if err != nil {
			return err
		}
		if n > 0 {
			if err := l.mgr.ReadBlock(rel, 0, buf); err != nil {
				return fmt.Errorf("wal: read control block: %w", err)
			}
		}
	}
	l.ctlSeq++
	slot := buf[int(l.ctlSeq%ctlSlots)*ctlSlotLen:]
	binary.LittleEndian.PutUint32(slot, ctlMagic)
	binary.LittleEndian.PutUint64(slot[8:], l.ctlSeq)
	binary.LittleEndian.PutUint64(slot[16:], firstSeg)
	binary.LittleEndian.PutUint64(slot[24:], uint64(l.segBlocks))
	binary.LittleEndian.PutUint32(slot[4:], crc32.ChecksumIEEE(slot[8:ctlSlotLen]))
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	if !exists {
		if err := l.mgr.Create(rel); err != nil {
			return err
		}
	}
	if err := l.mgr.WriteBlock(rel, 0, buf); err != nil {
		return err
	}
	return l.mgr.Sync(rel)
}

// --- recovery scan ----------------------------------------------------------

// recoverStateLocked locates the durable tail: read the control block, scan the
// live segments validating every record, truncate the torn tail, and
// position the in-memory append state at the last durable byte. cfgExplicit
// says whether the caller configured a segment size (as opposed to taking
// the default): an existing log's persisted size always governs LSN
// arithmetic, so a mismatching explicit size is rejected and the default is
// silently superseded.
func (l *Log) recoverStateLocked(cfgExplicit bool) error {
	firstSeg, seq, ctlSegBlocks, haveCtl, err := l.readCtl()
	if err != nil {
		return err
	}
	l.firstSeg, l.ctlSeq = firstSeg, seq
	if haveCtl && ctlSegBlocks != 0 && ctlSegBlocks != uint64(l.segBlocks) {
		if cfgExplicit {
			return fmt.Errorf("wal: log was created with SegBlocks=%d, configured SegBlocks=%d", ctlSegBlocks, l.segBlocks)
		}
		l.segBlocks = int(ctlSegBlocks)
		l.segBytes = ctlSegBlocks * page.Size
	}

	if !l.mgr.Exists(l.segRel(firstSeg)) {
		// Empty log. A successor of a missing first segment cannot be crash
		// debris — a segment is created only after its predecessor was
		// synced in full, and truncation advances the control block before
		// unlinking — so it is real damage.
		if l.mgr.Exists(l.segRel(firstSeg + 1)) {
			return fmt.Errorf("%w: first segment %d missing but segment %d exists",
				ErrCorrupt, firstSeg, firstSeg+1)
		}
		// The control block becomes durable before any segment byte does; a
		// crash between the two yields "ctl but no segments", handled right
		// here, never "segments but no ctl".
		if !haveCtl {
			if err := l.writeCtlLocked(firstSeg); err != nil {
				return err
			}
		}
		return l.startSegmentLocked(firstSeg)
	}

	// Walk segments from the oldest. Every segment with a durable successor
	// must parse in full; only the last may carry a torn tail.
	seg := firstSeg
	for {
		img, devBytes, err := l.readSegment(seg)
		if err != nil {
			return err
		}
		tail, serr := l.scanSegment(seg, img, func(r *Record) error {
			if r.Type == TypeCheckpoint {
				l.lastRedo = r.Redo
				l.hasCkpt = true
			}
			return nil
		})
		next := l.mgr.Exists(l.segRel(seg + 1))
		if serr != nil && next {
			return fmt.Errorf("%w: segment %d: %v", ErrCorrupt, seg, serr)
		}
		if next {
			seg++
			continue
		}
		// Tail segment: zero everything past the last valid record, stamp a
		// clean header (the device's may be torn or absent), and rewrite the
		// truncated range on the device so stale bytes can never be mistaken
		// for records after a later crash.
		for i := tail; i < uint64(len(img)); i++ {
			img[i] = 0
		}
		stampSegHeader(img, seg)
		if devBytes > tail {
			obsTornTail.Add(int64(devBytes - tail))
			start := tail - tail%page.Size
			if err := l.writeRange(seg, img[start:devBytes], start); err != nil {
				return err
			}
		}
		l.seg = seg
		l.img = img
		l.appendOff = tail
		l.durableOff = tail
		l.durable = LSN(seg*l.segBytes + tail)
		l.scanEnd = l.durable
		return nil
	}
}

// readSegment reads every device block of a segment into a full-size image,
// zero-filled past the device length. devBytes is the device-backed prefix.
func (l *Log) readSegment(seg uint64) (img []byte, devBytes uint64, err error) {
	rel := l.segRel(seg)
	n, err := l.mgr.NBlocks(rel)
	if err != nil {
		return nil, 0, err
	}
	if uint64(n) > uint64(l.segBlocks) {
		return nil, 0, fmt.Errorf("%w: segment %d has %d blocks, max %d", ErrCorrupt, seg, n, l.segBlocks)
	}
	img = make([]byte, l.segBytes)
	for b := storage.BlockNum(0); b < n; b++ {
		if err := l.mgr.ReadBlock(rel, b, img[uint64(b)*page.Size:(uint64(b)+1)*page.Size]); err != nil {
			return nil, 0, err
		}
	}
	return img, uint64(n) * page.Size, nil
}

func stampSegHeader(img []byte, seg uint64) {
	binary.LittleEndian.PutUint32(img, segMagic)
	binary.LittleEndian.PutUint32(img[4:], segVersion)
	binary.LittleEndian.PutUint64(img[8:], seg)
}

// segHeaderZero reports an all-zero header: an allocated-but-never-flushed
// segment, empty rather than corrupt.
func segHeaderZero(img []byte) bool {
	for _, b := range img[:segHdrLen] {
		if b != 0 {
			return false
		}
	}
	return true
}

// scanSegment parses one segment image, invoking fn for each valid record.
// It returns the offset one past the last valid record. A non-nil error
// means the remainder is not parseable — a torn tail if this is the last
// segment, corruption otherwise; the caller decides, knowing whether a
// successor segment exists. An fn error aborts the scan immediately.
func (l *Log) scanSegment(seg uint64, img []byte, fn func(*Record) error) (uint64, error) {
	if segHeaderZero(img) {
		return segHdrLen, nil
	}
	if binary.LittleEndian.Uint32(img) != segMagic {
		return segHdrLen, fmt.Errorf("bad segment magic")
	}
	if v := binary.LittleEndian.Uint32(img[4:]); v != segVersion {
		return segHdrLen, fmt.Errorf("unsupported segment version %d", v)
	}
	if got := binary.LittleEndian.Uint64(img[8:]); got != seg {
		return segHdrLen, fmt.Errorf("segment header names segment %d", got)
	}
	end, err := scan(img, segHdrLen, LSN(seg*l.segBytes), fn)
	return uint64(end), err
}

// startSegmentLocked begins a fresh, empty tail segment in memory. The relation
// is created immediately (so the first flush may write into it) but nothing
// of it is durable until that flush syncs. Caller holds mu (or is Open).
func (l *Log) startSegmentLocked(seg uint64) error {
	if !l.mgr.Exists(l.segRel(seg)) {
		if err := l.mgr.Create(l.segRel(seg)); err != nil {
			return err
		}
	}
	// The image is reused across rotations. Appends only ever write below
	// appendOff, so clearing that prefix restores the all-zero segment the
	// scanner's end-of-records rule relies on; nothing outside mu holds a
	// reference (flushes and shipping copy out of it under mu).
	if uint64(len(l.img)) == l.segBytes {
		clear(l.img[:l.appendOff])
	} else {
		l.img = make([]byte, l.segBytes)
	}
	stampSegHeader(l.img, seg)
	l.seg = seg
	l.appendOff = segHdrLen
	l.durableOff = 0
	if d := LSN(seg * l.segBytes); d > l.durable {
		// The predecessor was flushed in full before rotation; no LSN below
		// this segment's start can still be waited on.
		l.durable = d
	}
	return nil
}

// Replay re-scans the durable log and invokes fn for every record at or
// after the newest checkpoint's redo point, in LSN order. Call it once,
// after Open and before any appends; it reads the segments back from the
// storage manager (Open already truncated the torn tail there).
func (l *Log) Replay(fn func(*Record) error) error {
	l.mu.Lock()
	first, end, redo, hasCkpt := l.firstSeg, l.scanEnd, l.lastRedo, l.hasCkpt
	l.mu.Unlock()
	if !hasCkpt {
		redo = 0
	}
	for seg := first; LSN(seg*l.segBytes) < end; seg++ {
		if LSN((seg+1)*l.segBytes) <= redo {
			continue // wholly before the redo point
		}
		if !l.mgr.Exists(l.segRel(seg)) {
			return fmt.Errorf("%w: segment %d vanished during replay", ErrCorrupt, seg)
		}
		img, _, err := l.readSegment(seg)
		if err != nil {
			return err
		}
		_, err = l.scanSegment(seg, img, func(r *Record) error {
			if r.End > end || r.LSN < redo {
				return nil
			}
			obsReplayRecs.Inc()
			return fn(r)
		})
		if err != nil {
			return fmt.Errorf("%w: segment %d: %v", ErrCorrupt, seg, err)
		}
	}
	return nil
}

// --- append -----------------------------------------------------------------

// append encodes one record straight into the tail segment's image and
// returns its end LSN: once Flush(end) returns, the record is durable. The
// bytes are only in the in-memory tail when append returns. Nothing is
// allocated: the length is known before the first byte is written, so the
// record is encoded in place, into room the rotation loop has secured.
func (l *Log) append(r *Record) (LSN, error) {
	n, err := recordLen(r)
	if err != nil {
		return 0, err
	}
	size := uint64(n)
	l.mu.Lock()
	defer l.mu.Unlock()
	if size > l.segBytes-segHdrLen {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte segment", size, l.segBytes)
	}
	for {
		if l.closed {
			return 0, ErrClosed
		}
		if l.ioErr != nil {
			return 0, l.ioErr
		}
		if l.appendOff+size <= l.segBytes {
			break
		}
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	if _, err := appendRecord(l.img[:l.appendOff], r); err != nil {
		return 0, err
	}
	l.appendOff += size
	obsAppends.Inc()
	obsAppendBytes.Add(int64(size))
	return LSN(l.seg*l.segBytes + l.appendOff), nil
}

// rotateLocked closes the current segment: wait for the flusher to make it
// durable in full, then start the successor. Rotation never performs
// segment I/O itself — only the flusher writes segment bytes, so a stale
// flush snapshot can never zero-pad over bytes rotation made durable.
// Caller holds mu; cond.Wait releases it while parked.
func (l *Log) rotateLocked() error {
	myseg := l.seg
	for l.seg == myseg && l.durableOff < l.appendOff && l.ioErr == nil && !l.closed {
		l.kickLocked()
		l.cond.Wait()
	}
	switch {
	case l.ioErr != nil:
		return l.ioErr
	case l.closed:
		return ErrClosed
	case l.seg != myseg:
		return nil // a concurrent appender already rotated
	}
	obsRotations.Inc()
	return l.startSegmentLocked(myseg + 1)
}

// writeRange writes data — whole blocks covering segment offsets
// [start, start+len(data)) — to the segment's relation with one vectored
// write and syncs it. start must be block-aligned. Takes ioMu; the caller
// must not hold state it expects to stay stable across the wait.
func (l *Log) writeRange(seg uint64, data []byte, start uint64) error {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	if l.ioRel == "" || l.ioSeg != seg {
		l.ioSeg, l.ioRel = seg, l.segRel(seg)
	}
	rel := l.ioRel
	if !l.mgr.Exists(rel) {
		if err := l.mgr.Create(rel); err != nil {
			return err
		}
	}
	l.ioVec = l.ioVec[:0]
	for off := 0; off < len(data); off += page.Size {
		l.ioVec = append(l.ioVec, data[off:off+page.Size])
	}
	if err := l.mgr.WriteBlocks(rel, storage.BlockNum(start/page.Size), l.ioVec); err != nil {
		return err
	}
	return l.mgr.Sync(rel)
}

// AppendPageImage logs a physical redo image of one page.
func (l *Log) AppendPageImage(sm storage.ID, rel storage.RelName, blk storage.BlockNum, image []byte, xid uint32) (LSN, error) {
	return l.AppendPageImageHole(sm, rel, blk, image, 0, 0, xid)
}

// AppendPageImageHole logs a physical redo image of one page without its
// hole, image[holeOff:holeOff+holeLen]: bytes the caller has zeroed and that
// replay restores as zeros. The hole's bytes are never read, so the caller's
// zeroing — done before it checksummed the image — is what makes the
// replayed page verify.
func (l *Log) AppendPageImageHole(sm storage.ID, rel storage.RelName, blk storage.BlockNum, image []byte, holeOff, holeLen int, xid uint32) (LSN, error) {
	lsn, err := l.append(&Record{Type: TypePageImage, XID: xid, SM: sm, Rel: rel, Blk: blk,
		Image: image, HoleOff: holeOff, HoleLen: holeLen})
	if err == nil {
		obsPageImages.Inc()
		obsHoleBytes.Add(int64(holeLen))
	}
	return lsn, err
}

// AppendCommit logs a transaction commit with its timestamp.
func (l *Log) AppendCommit(xid uint32, ts int64) (LSN, error) {
	lsn, err := l.append(&Record{Type: TypeCommit, XID: xid, TS: ts})
	if err == nil {
		obsCommitRecs.Inc()
	}
	return lsn, err
}

// AppendAbort logs a transaction abort. Abort records are an optimisation —
// recovery treats transactions with no commit record as aborted — so
// callers pass the result to FlushLazy rather than waiting on it.
func (l *Log) AppendAbort(xid uint32) (LSN, error) {
	lsn, err := l.append(&Record{Type: TypeAbort, XID: xid})
	if err == nil {
		obsAbortRecs.Inc()
	}
	return lsn, err
}

// AppendUnlink logs a relation drop, so replay never resurrects storage
// that was deliberately removed after its pages were logged.
func (l *Log) AppendUnlink(sm storage.ID, rel storage.RelName) (LSN, error) {
	lsn, err := l.append(&Record{Type: TypeUnlink, SM: sm, Rel: rel})
	if err == nil {
		obsUnlinkRecs.Inc()
	}
	return lsn, err
}

// --- flushing ---------------------------------------------------------------

// Durable returns the LSN through which the log is known durable.
func (l *Log) Durable() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// End returns the LSN one past the last appended byte.
func (l *Log) End() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LSN(l.seg*l.segBytes + l.appendOff)
}

// Stats returns a snapshot of the log's position.
func (l *Log) Stats() Info {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Info{
		FirstSeg: l.firstSeg,
		Seg:      l.seg,
		Durable:  l.durable,
		End:      LSN(l.seg*l.segBytes + l.appendOff),
	}
}

// Flush blocks until the log is durable through lsn — the group-commit
// wait. The caller parks; the flusher goroutine batches every waiter parked
// while one device sync is in flight into the next single sync.
func (l *Log) Flush(lsn LSN) error {
	sw := obsFlushLat.Start()
	defer sw.Stop()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.durable >= lsn {
		return nil
	}
	if l.ioErr != nil {
		return l.ioErr
	}
	if l.closed {
		return ErrClosed
	}
	w := &waiter{lsn: lsn}
	l.waiting = append(l.waiting, w)
	l.kickLocked()
	for l.durable < lsn && l.ioErr == nil && !l.closed {
		l.cond.Wait()
	}
	// The flusher removes satisfied waiters; on the error and close paths
	// this one may still be listed.
	for i, o := range l.waiting {
		if o == w {
			l.waiting = append(l.waiting[:i], l.waiting[i+1:]...)
			break
		}
	}
	if l.durable >= lsn {
		return nil
	}
	if l.ioErr != nil {
		return l.ioErr
	}
	return ErrClosed
}

// FlushLazy notes that lsn should become durable soon without waiting for
// it — the abort-record path. It deliberately initiates no I/O: appends are
// strictly ordered, so the next synchronous Flush (or Close's final drain)
// carries lsn with it. Starting background I/O here would make device
// writes race whatever the caller does next, which the deterministic
// crash-simulation harness cannot tolerate.
func (l *Log) FlushLazy(lsn LSN) {
	_ = lsn
}

func (l *Log) kickLocked() {
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// flusher is the dedicated group-commit goroutine: each cycle snapshots the
// unflushed tail, writes and syncs it with no append lock held, then wakes
// every waiter the new durable LSN satisfies.
func (l *Log) flusher() {
	defer close(l.flusherDone)
	for {
		select {
		case <-l.kick:
			l.flushOnce()
		case <-l.stop:
			l.flushOnce() // final drain
			return
		}
	}
}

// flushOnce pushes everything appended so far to the device. The tail bytes
// are copied under mu (appends may fill img concurrently) and the last
// partial block is zero-padded; the padding is overwritten by whichever
// later flush covers the rest of that block, and the scanner reads the
// zeros as end-of-records either way. Rotation cannot change l.seg while
// this flush is in flight: it waits for durableOff == appendOff, which only
// this function establishes.
func (l *Log) flushOnce() {
	l.mu.Lock()
	if l.ioErr != nil || l.appendOff <= l.durableOff {
		l.wakeLocked()
		l.mu.Unlock()
		return
	}
	seg := l.seg
	target := l.appendOff
	start := l.durableOff - l.durableOff%page.Size
	end := target + (page.Size-target%page.Size)%page.Size
	if uint64(cap(l.flushBuf)) < end-start {
		// One segment bounds every flush: the first allocates the buffer
		// and none after it does.
		l.flushBuf = make([]byte, l.segBytes)
	}
	buf := l.flushBuf[:end-start]
	copy(buf, l.img[start:target])
	clear(buf[target-start:])
	l.mu.Unlock()

	err := l.writeRange(seg, buf, start)

	l.mu.Lock()
	if err != nil {
		l.ioErr = err
	} else {
		obsFsyncs.Inc()
		if l.seg == seg && target > l.durableOff {
			l.durableOff = target
		}
		if d := LSN(seg*l.segBytes + target); d > l.durable {
			l.durable = d
		}
	}
	l.wakeLocked()
	l.mu.Unlock()
}

// wakeLocked drops every waiter the current durable LSN satisfies, records
// the group size, and broadcasts. Caller holds mu.
func (l *Log) wakeLocked() {
	if len(l.waiting) > 0 {
		served := 0
		keep := l.waiting[:0]
		for _, w := range l.waiting {
			if w.lsn <= l.durable {
				served++
			} else {
				keep = append(keep, w)
			}
		}
		l.waiting = keep
		if served > 0 {
			obsGroupTxns.Add(int64(served))
			obsGroupSize.Observe(time.Duration(served))
		}
	}
	l.notifyLocked()
	l.cond.Broadcast()
}

// --- checkpoint / truncation ------------------------------------------------

// RedoPoint returns the LSN a checkpoint beginning now must replay from:
// call it before flushing data pages, so every page image the flush misses
// lies at or above it and stays in the log.
func (l *Log) RedoPoint() LSN { return l.End() }

// CheckpointMeta is the version metadata a checkpoint records alongside its
// redo point: the transaction manager's counters and snapshot horizon at the
// moment of the checkpoint. Recovery replays it into the manager so XIDs and
// commit timestamps stay monotonic across a crash even when the commit-log
// file lagged the write-ahead log.
type CheckpointMeta struct {
	NextXID uint32 // next XID the manager would issue
	NowTS   int64  // latest commit timestamp assigned
	Oldest  uint32 // global xmin horizon (oldest snapshot any reader holds)
}

// Checkpoint appends a checkpoint record carrying redo — the caller's redo
// point, captured with RedoPoint before it began flushing data pages —
// makes it durable, and drops every segment wholly below the redo point.
// Callers serialise checkpoints themselves (concurrent calls are safe but
// may interleave truncations pointlessly). Returns the record's end LSN.
func (l *Log) Checkpoint(redo LSN) (LSN, error) {
	return l.CheckpointWithMeta(redo, CheckpointMeta{})
}

// CheckpointWithMeta is Checkpoint carrying the version-metadata triple.
func (l *Log) CheckpointWithMeta(redo LSN, meta CheckpointMeta) (LSN, error) {
	lsn, err := l.append(&Record{
		Type:   TypeCheckpoint,
		Redo:   redo,
		XID:    meta.NextXID,
		TS:     meta.NowTS,
		Oldest: meta.Oldest,
	})
	if err != nil {
		return 0, err
	}
	obsCkptRecs.Inc()
	if err := l.Flush(lsn); err != nil {
		return 0, err
	}
	l.mu.Lock()
	l.lastRedo = redo
	l.hasCkpt = true
	first := l.firstSeg
	// A registered replication slot holds back truncation: segments a
	// connected replica may still re-request stay on disk even when the
	// redo point has moved past them. Released slots (dead replicas) stop
	// pinning immediately.
	bound := l.slotHoldbackLocked(redo)
	keep := uint64(bound) / l.segBytes
	if keep > l.seg {
		keep = l.seg
	}
	if keep <= first {
		l.mu.Unlock()
		return lsn, nil
	}
	// Advance the control block before unlinking: a crash in between leaves
	// unreferenced segments behind (never scanned again), not a control
	// block pointing at nothing.
	if err := l.writeCtlLocked(keep); err != nil {
		l.mu.Unlock()
		return lsn, err
	}
	l.firstSeg = keep
	l.mu.Unlock()

	dropped := int64(0)
	for seg := first; seg < keep; seg++ {
		rel := l.segRel(seg)
		if !l.mgr.Exists(rel) {
			continue
		}
		if sz, err := l.mgr.Size(rel); err == nil {
			dropped += sz
		}
		if err := l.mgr.Unlink(rel); err != nil {
			return lsn, err
		}
	}
	obsTruncations.Inc()
	obsTruncBytes.Add(dropped)
	return lsn, nil
}

// Close drains the flusher and shuts the log down. Parked Flush calls whose
// LSN the final drain did not cover return ErrClosed. Close is safe to call
// concurrently and repeatedly: the first caller owns the shutdown (the
// closing flag is set under mu, so stop is closed exactly once) and every
// other caller waits for it to finish and returns the same sticky error.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closing {
		l.mu.Unlock()
		<-l.flusherDone
		l.mu.Lock()
		err := l.ioErr
		l.mu.Unlock()
		return err
	}
	l.closing = true
	l.mu.Unlock()
	close(l.stop)
	<-l.flusherDone
	l.mu.Lock()
	l.closed = true
	err := l.ioErr
	l.notifyLocked() // durable watchers re-check and see the close
	l.cond.Broadcast()
	l.mu.Unlock()
	return err
}
