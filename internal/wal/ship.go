// Log shipping: the primary-side surface internal/repl builds on. Three
// pieces live here, all small and all on the existing Log:
//
//   - Replication slots. A connected replica registers a slot holding the
//     oldest LSN it may still re-request after a crash of its own (its
//     durable applied LSN). Checkpoint truncation clamps to the minimum
//     slot, so a fuzzy checkpoint can never drop a segment a registered
//     replica still needs. Slots are in-memory only: a disconnected (dead)
//     replica releases its slot and stops pinning segments — if the log
//     moves past it while it is away, reconnection falls back to a full
//     base resync.
//
//   - ReadDurable: the sender's bulk read of framed records from the
//     durable log, segment-bounded so LSN arithmetic inside a chunk is
//     plain byte offsets. Only durable bytes are ever shipped: a replica
//     must never hold records the primary itself could lose in a crash.
//
//   - ScanRecords: the chunk parser the replica (and the sender's boundary
//     checks) use — the same CRC-framed record encoding the segments use,
//     without the segment header.
package wal

import (
	"fmt"

	"postlob/internal/crcframe"
)

// ErrGone reports a ReadDurable position that checkpoint truncation has
// already dropped; the caller must fall back to a full base resync.
var ErrGone = fmt.Errorf("wal: requested LSN no longer retained")

// SegHeaderLen is the segment header size — the offset of a segment's first
// record boundary. Exported so the replication receiver can validate stream
// continuity across segment-header gaps.
const SegHeaderLen = segHdrLen

// --- replication slots ------------------------------------------------------

// TryAcquireSlot registers (or re-registers) a replication slot at lsn if
// the log still retains that position — lsn must lie at or above the start
// of the oldest live segment. It reports whether the slot was taken; on
// false the caller should AcquireSlotAtEnd and run a base resync instead.
func (l *Log) TryAcquireSlot(name string, lsn LSN) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if uint64(lsn) < l.firstSeg*l.segBytes {
		return false
	}
	if l.slots == nil {
		l.slots = make(map[string]LSN)
	}
	l.slots[name] = lsn
	return true
}

// AcquireSlotAtEnd registers a slot at the current end of log and returns
// that LSN — the base LSN of a full resync: every record at or above it is
// guaranteed retained until the slot advances or is released.
func (l *Log) AcquireSlotAtEnd(name string) LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	at := LSN(l.seg*l.segBytes + l.appendOff)
	if l.slots == nil {
		l.slots = make(map[string]LSN)
	}
	l.slots[name] = at
	return at
}

// AdvanceSlot moves a slot forward (never backward) as the replica reports
// durable progress. Unknown names are ignored — the slot may have been
// released by a concurrent disconnect.
func (l *Log) AdvanceSlot(name string, lsn LSN) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if cur, ok := l.slots[name]; ok && lsn > cur {
		l.slots[name] = lsn
	}
}

// ReleaseSlot drops a slot; its segments become truncatable again.
func (l *Log) ReleaseSlot(name string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.slots, name)
}

// slotHoldbackLocked returns the truncation bound: the minimum LSN any
// registered slot still needs, or bound unchanged when no slot holds one
// lower. Caller holds mu.
func (l *Log) slotHoldbackLocked(bound LSN) LSN {
	for _, at := range l.slots {
		if at < bound {
			bound = at
		}
	}
	return bound
}

// --- durable-advance notification -------------------------------------------

// NotifyDurable registers ch to receive a non-blocking signal whenever the
// durable LSN advances (and on close/error, so waiters re-check and exit).
// The channel should have capacity 1; a full channel is skipped, which is
// fine — the receiver re-reads the durable position on every wake.
func (l *Log) NotifyDurable(ch chan<- struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.notify = append(l.notify, ch)
}

// StopNotify unregisters a channel passed to NotifyDurable.
func (l *Log) StopNotify(ch chan<- struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, c := range l.notify {
		if c == ch {
			l.notify = append(l.notify[:i], l.notify[i+1:]...)
			break
		}
	}
}

// notifyLocked pokes every registered durable-watcher. Caller holds mu.
func (l *Log) notifyLocked() {
	for _, ch := range l.notify {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// --- bulk durable reads -----------------------------------------------------

// ReadDurable returns a chunk of encoded records — CRC framing included —
// starting at the record boundary from, bounded by the durable LSN and by
// the containing segment (chunks never span segments, mirroring records).
// next is the position the following call should pass: one past the chunk,
// or the first record boundary of the successor segment when from's segment
// is exhausted. A nil chunk with next == from means the caller is caught up.
// from positions the log no longer retains return ErrGone.
func (l *Log) ReadDurable(from LSN) (chunk []byte, next LSN, err error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, from, ErrClosed
	}
	durable, tailSeg, firstSeg := l.durable, l.seg, l.firstSeg
	durableOff := l.durableOff

	seg := uint64(from) / l.segBytes
	// A position at or before a segment header is normalised to its first
	// record boundary.
	if uint64(from) < seg*l.segBytes+segHdrLen {
		from = LSN(seg*l.segBytes + segHdrLen)
	}
	if seg < firstSeg {
		l.mu.Unlock()
		return nil, from, ErrGone
	}
	if from >= durable {
		l.mu.Unlock()
		return nil, from, nil
	}
	if seg == tailSeg {
		// Tail segment: the durable prefix of the in-memory image is exact
		// and always ends on a record boundary (flushes cover whole appended
		// records). Copy under mu — bounded by one segment.
		off := uint64(from) - seg*l.segBytes
		if off >= durableOff {
			l.mu.Unlock()
			return nil, from, nil
		}
		chunk = append([]byte(nil), l.img[off:durableOff]...)
		next = LSN(seg*l.segBytes + durableOff)
		l.mu.Unlock()
	} else {
		l.mu.Unlock()
		// A closed (pre-tail) segment: fully durable on the device — rotation
		// waits for the flusher to finish a segment before starting its
		// successor. Read it back and slice from the requested offset to the
		// end of its records. The registered slot guarantees the segment is
		// not truncated while we read it.
		img, _, err := l.readSegment(seg)
		if err != nil {
			return nil, from, err
		}
		end, err := l.scanSegment(seg, img, func(*Record) error { return nil })
		if err != nil {
			return nil, from, fmt.Errorf("%w: segment %d: %v", ErrCorrupt, seg, err)
		}
		next = LSN((seg+1)*l.segBytes + segHdrLen)
		off := uint64(from) - seg*l.segBytes
		if off >= end {
			return nil, next, nil
		}
		chunk = img[off:end]
	}
	// The chunk must begin with a framed record whose CRC matches: a replica
	// that reported a mid-record LSN (corruption, or a foreign control file)
	// fails here loudly instead of being shipped garbage.
	if _, _, err := crcframe.Decode(chunk, maxRecBody); err != nil {
		return nil, from, fmt.Errorf("%w: chunk at %d: %v", ErrCorrupt, from, err)
	}
	return chunk, next, nil
}

// ScanRecords parses a chunk of concatenated framed records as produced by
// ReadDurable, invoking fn for each with LSN/End assigned from start. Every
// record is CRC-verified; any framing violation — truncation, overrun, a
// flipped bit — fails the whole chunk with ErrCorrupt, and fn is never
// invoked for bytes after the corruption. Trailing zero bytes (segment
// padding) terminate the scan cleanly.
func ScanRecords(start LSN, chunk []byte, fn func(*Record) error) error {
	var fnErr error
	end, err := scan(chunk, 0, start, func(r *Record) error { fnErr = fn(r); return fnErr })
	if fnErr != nil {
		return fnErr
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	for _, b := range chunk[end:] {
		if b != 0 {
			return fmt.Errorf("%w: nonzero bytes after the last record at offset %d", ErrCorrupt, end)
		}
	}
	return nil
}

// SegmentStart returns the first record boundary of the segment containing
// lsn — where a chunk stream through that segment begins.
func (l *Log) SegmentStart(lsn LSN) LSN {
	seg := uint64(lsn) / l.segBytes
	return LSN(seg*l.segBytes + segHdrLen)
}

// SegBytes returns the segment size in bytes. Replication ships it to the
// replica so both sides normalise stream positions across segment-header
// gaps with the same arithmetic.
func (l *Log) SegBytes() uint64 { return l.segBytes }
