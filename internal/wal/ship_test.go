package wal

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"postlob/internal/storage"
)

// fillSegments appends and flushes enough page images to span several
// segments, returning the end LSN.
func fillSegments(t *testing.T, l *Log, n int) LSN {
	t.Helper()
	var last LSN
	for i := 0; i < n; i++ {
		lsn, err := l.AppendPageImage(storage.Disk, "r", storage.BlockNum(i), testImage(byte(i)), 1)
		if err != nil {
			t.Fatal(err)
		}
		last = lsn
	}
	if err := l.Flush(last); err != nil {
		t.Fatal(err)
	}
	return last
}

// TestCheckpointSlotHoldback is the regression test for the unconditional
// truncation bug: a registered replication slot must pin its segments
// across a checkpoint so a slow replica can still catch up, and releasing
// the slot (a dead replica) must let the next checkpoint reclaim them.
func TestCheckpointSlotHoldback(t *testing.T) {
	mem := newMem()
	l, err := Open(mem, Config{SegBlocks: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()

	// The replica registers at the start of log, then falls behind.
	if !l.TryAcquireSlot("replica-a", 0) {
		t.Fatalf("TryAcquireSlot at 0 on a fresh log refused")
	}
	fillSegments(t, l, 8)
	before := l.Stats()
	if before.Seg < 2 {
		t.Fatalf("expected several segments, got %+v", before)
	}

	if _, err := l.Checkpoint(l.RedoPoint(), CheckpointMeta{}); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	held := l.Stats()
	if held.FirstSeg != 0 {
		t.Fatalf("checkpoint truncated past a registered slot: firstSeg %d", held.FirstSeg)
	}

	// The slow replica still reads everything from its slot position.
	var got int
	for from := LSN(segHdrLen); from < held.Durable; {
		chunk, next, err := l.ReadDurable(from)
		if err != nil {
			t.Fatalf("ReadDurable(%d): %v", from, err)
		}
		if next == from {
			break
		}
		if err := ScanRecords(from, chunk, func(r *Record) error {
			if r.Type == TypePageImage {
				got++
			}
			return nil
		}); err != nil {
			t.Fatalf("ScanRecords: %v", err)
		}
		from = next
	}
	if got != 8 {
		t.Fatalf("slow replica read %d page images through the held log, want 8", got)
	}

	// The replica catches up: its slot advances, and the next checkpoint
	// reclaims the segments below it.
	l.AdvanceSlot("replica-a", held.Durable)
	if _, err := l.Checkpoint(l.RedoPoint(), CheckpointMeta{}); err != nil {
		t.Fatalf("Checkpoint after advance: %v", err)
	}
	if after := l.Stats(); after.FirstSeg == 0 {
		t.Fatalf("advanced slot still pins segment 0: %+v", after)
	}

	// A dead replica's released slot must not pin segments forever.
	l.ReleaseSlot("replica-a")
	if !l.TryAcquireSlot("replica-dead", l.Stats().Durable) {
		t.Fatalf("TryAcquireSlot at durable refused")
	}
	fillSegments(t, l, 8)
	l.ReleaseSlot("replica-dead")
	if _, err := l.Checkpoint(l.RedoPoint(), CheckpointMeta{}); err != nil {
		t.Fatalf("Checkpoint after release: %v", err)
	}
	final := l.Stats()
	if final.FirstSeg != final.Seg {
		t.Fatalf("released slot still holds back truncation: %+v", final)
	}

	// A reconnecting replica whose position was truncated is told to
	// resync rather than silently streamed a gap.
	if l.TryAcquireSlot("replica-dead", 0) {
		t.Fatalf("TryAcquireSlot succeeded below the retained log")
	}
	if _, _, err := l.ReadDurable(LSN(segHdrLen)); !errors.Is(err, ErrGone) {
		t.Fatalf("ReadDurable below retention = %v, want ErrGone", err)
	}
}

// TestReadDurableStream drives ReadDurable across segment boundaries and
// checks the chunks reassemble the exact record sequence, with LSNs
// matching what Replay reports.
func TestReadDurableStream(t *testing.T) {
	mem := newMem()
	l, err := Open(mem, Config{SegBlocks: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	l.AcquireSlotAtEnd("reader")

	var want []LSN
	for i := 0; i < 10; i++ {
		lsn, err := l.AppendPageImage(storage.Mem, "rel", storage.BlockNum(i), testImage(byte(i)), uint32(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.AppendCommit(uint32(i+1), int64(i+100)); err != nil {
			t.Fatal(err)
		}
		want = append(want, lsn)
	}
	if err := l.Flush(l.End()); err != nil {
		t.Fatal(err)
	}

	var gotImages, gotCommits int
	var ends []LSN
	for from := LSN(segHdrLen); from < l.Durable(); {
		chunk, next, err := l.ReadDurable(from)
		if err != nil {
			t.Fatalf("ReadDurable(%d): %v", from, err)
		}
		if next == from {
			break
		}
		if err := ScanRecords(from, chunk, func(r *Record) error {
			switch r.Type {
			case TypePageImage:
				gotImages++
				ends = append(ends, r.End)
				if !bytes.Equal(r.Image, testImage(byte(gotImages-1))) {
					return fmt.Errorf("page image %d bytes mismatch", gotImages-1)
				}
			case TypeCommit:
				gotCommits++
			}
			return nil
		}); err != nil {
			t.Fatalf("ScanRecords at %d: %v", from, err)
		}
		from = next
	}
	if gotImages != 10 || gotCommits != 10 {
		t.Fatalf("stream carried %d images / %d commits, want 10/10", gotImages, gotCommits)
	}
	for i, e := range ends {
		if e != want[i] {
			t.Fatalf("image %d End = %d, want append LSN %d", i, e, want[i])
		}
	}

	// Caught up: a read at durable returns no chunk and does not advance.
	chunk, next, err := l.ReadDurable(l.Durable())
	if err != nil || chunk != nil || next != l.Durable() {
		t.Fatalf("ReadDurable at durable = (%v, %d, %v), want (nil, durable, nil)", chunk, next, err)
	}
}

// TestScanRecordsRejectsCorruption flips bits in a valid chunk and checks
// the scanner refuses the frame rather than applying garbage.
func TestScanRecordsRejectsCorruption(t *testing.T) {
	var chunk []byte
	var err error
	chunk, err = appendRecord(chunk, &Record{Type: TypeCommit, XID: 5, TS: 50})
	if err != nil {
		t.Fatal(err)
	}
	chunk, err = appendRecord(chunk, &Record{Type: TypeAbort, XID: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := ScanRecords(0, chunk, func(*Record) error { return nil }); err != nil {
		t.Fatalf("clean chunk rejected: %v", err)
	}
	for i := range chunk {
		mut := append([]byte(nil), chunk...)
		mut[i] ^= 0x40
		var applied int
		err := ScanRecords(0, mut, func(*Record) error { applied++; return nil })
		// Any bit flip must either fail the scan or (for flips inside the
		// second record) apply only records that preceded the corruption.
		if err == nil && applied != 0 && i < len(chunk)-1 {
			// A flip in record two's bytes may still deliver record one;
			// record one's bytes must never survive their own corruption.
			firstLen := 0
			for firstLen < len(chunk) {
				l := int(uint32(chunk[firstLen]) | uint32(chunk[firstLen+1])<<8 | uint32(chunk[firstLen+2])<<16 | uint32(chunk[firstLen+3])<<24)
				firstLen += recHdrLen + l
				break
			}
			if i < firstLen && applied > 0 {
				t.Fatalf("flip at %d inside record one still applied %d records", i, applied)
			}
		}
		if err == nil && applied == 2 {
			t.Fatalf("flip at %d went completely undetected", i)
		}
		// Truncation must also fail loudly (or stop before the cut).
		if err := ScanRecords(0, chunk[:i], func(*Record) error { return nil }); err == nil && i != 0 {
			if i != len(chunk) {
				// A prefix ending exactly on a record boundary is a valid
				// (shorter) chunk; anything else must error.
				onBoundary := false
				off := 0
				for off <= i {
					if off == i {
						onBoundary = true
						break
					}
					if off+recHdrLen > len(chunk) {
						break
					}
					l := int(uint32(chunk[off]) | uint32(chunk[off+1])<<8 | uint32(chunk[off+2])<<16 | uint32(chunk[off+3])<<24)
					off += recHdrLen + l
				}
				if !onBoundary {
					t.Fatalf("truncation at %d accepted", i)
				}
			}
		}
	}
}
