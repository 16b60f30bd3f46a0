package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"

	"postlob/internal/page"
	"postlob/internal/storage"
)

func newMem() *storage.MemManager {
	return storage.NewMemManager(storage.DeviceModel{}, nil)
}

func testImage(fill byte) []byte {
	img := make([]byte, page.Size)
	for i := range img {
		img[i] = fill + byte(i%7)
	}
	return img
}

// collect replays the whole log into a slice.
func collect(t *testing.T, l *Log) []*Record {
	t.Helper()
	var recs []*Record
	if err := l.Replay(func(r *Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return recs
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []*Record{
		{Type: TypePageImage, XID: 7, SM: storage.Disk, Rel: "pg_lob_42", Blk: 13, Image: testImage(3)},
		{Type: TypeCommit, XID: 9, TS: -44},
		{Type: TypeCommit, XID: 10, TS: 1 << 60},
		{Type: TypeAbort, XID: 11},
		{Type: TypeCheckpoint, Redo: 123456789},
		{Type: TypeCheckpoint, Redo: 55, XID: 4096, TS: 777, Oldest: 4000},
		{Type: TypeUnlink, SM: storage.Worm, Rel: "pg_lob_old"},
		{Type: TypeUnlink, SM: storage.Mem, Rel: ""},
	}
	for _, want := range recs {
		enc, err := appendRecord(nil, want)
		if err != nil {
			t.Fatalf("appendRecord(%v): %v", want.Type, err)
		}
		got, err := decodeBody(enc[recHdrLen:])
		if err != nil {
			t.Fatalf("decodeBody(%v): %v", want.Type, err)
		}
		if got.Type != want.Type || got.XID != want.XID || got.TS != want.TS ||
			got.SM != want.SM || got.Rel != want.Rel || got.Blk != want.Blk ||
			got.Redo != want.Redo || got.Oldest != want.Oldest || !bytes.Equal(got.Image, want.Image) {
			t.Errorf("%v: round trip mismatch: got %+v want %+v", want.Type, got, want)
		}
	}
}

// TestCheckpointLegacyBodyDecodes pins backward compatibility: an 8-byte
// checkpoint body (written before checkpoints carried version metadata)
// still decodes, with the counters reading zero.
func TestCheckpointLegacyBodyDecodes(t *testing.T) {
	legacy := make([]byte, 9)
	legacy[0] = byte(TypeCheckpoint)
	binary.LittleEndian.PutUint64(legacy[1:], 4242)
	got, err := decodeBody(legacy)
	if err != nil {
		t.Fatalf("legacy checkpoint body: %v", err)
	}
	if got.Redo != 4242 || got.XID != 0 || got.TS != 0 || got.Oldest != 0 {
		t.Fatalf("legacy checkpoint decoded as %+v", got)
	}
}

func TestRecordEncodeErrors(t *testing.T) {
	if _, err := appendRecord(nil, &Record{Type: TypePageImage, Image: []byte{1, 2}}); err == nil {
		t.Error("short page image encoded without error")
	}
	if _, err := appendRecord(nil, &Record{Type: Type(99)}); err == nil {
		t.Error("unknown type encoded without error")
	}
}

// TestCloseConcurrent checks racing Close calls: the first owns the
// shutdown, the rest wait for it, and nobody double-closes the stop channel.
func TestCloseConcurrent(t *testing.T) {
	mem := newMem()
	l, err := Open(mem, Config{SegBlocks: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := l.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Errorf("Close after close: %v", err)
	}
}

// TestSegBlocksPersisted checks the segment size is stored in the control
// block: every LSN is segment*segBytes+offset, so reopening under a
// different size would silently reinterpret the whole log. An explicit
// mismatching size is rejected with a configuration error (not ErrCorrupt);
// the default adopts the stored size and replays cleanly.
func TestSegBlocksPersisted(t *testing.T) {
	mem := newMem()
	l, err := Open(mem, Config{SegBlocks: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	lsn, err := l.AppendCommit(1, 42)
	if err != nil {
		t.Fatalf("AppendCommit: %v", err)
	}
	if err := l.Flush(lsn); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	if _, err := Open(mem, Config{SegBlocks: 4}); err == nil || errors.Is(err, ErrCorrupt) {
		t.Fatalf("mismatching explicit SegBlocks: err = %v, want a configuration error", err)
	}

	l2, err := Open(mem, Config{}) // defaulted size adopts the stored one
	if err != nil {
		t.Fatalf("reopen with default SegBlocks: %v", err)
	}
	defer l2.Close()
	recs := collect(t, l2)
	if len(recs) != 1 || recs[0].Type != TypeCommit || recs[0].XID != 1 {
		t.Fatalf("replay after adopting stored SegBlocks = %+v, want the one commit", recs)
	}
}

func TestAppendFlushReplay(t *testing.T) {
	mem := newMem()
	l, err := Open(mem, Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	img := testImage(1)
	if _, err := l.AppendPageImage(storage.Disk, "r1", 0, img, 5); err != nil {
		t.Fatalf("AppendPageImage: %v", err)
	}
	lsn, err := l.AppendCommit(5, 1001)
	if err != nil {
		t.Fatalf("AppendCommit: %v", err)
	}
	if err := l.Flush(lsn); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if l.Durable() < lsn {
		t.Fatalf("durable %d below flushed %d", l.Durable(), lsn)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: both records must come back in order.
	l2, err := Open(mem, Config{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	recs := collect(t, l2)
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want 2", len(recs))
	}
	if recs[0].Type != TypePageImage || recs[0].Rel != "r1" || !bytes.Equal(recs[0].Image, img) {
		t.Errorf("record 0 = %+v, want the page image", recs[0])
	}
	if recs[1].Type != TypeCommit || recs[1].XID != 5 || recs[1].TS != 1001 {
		t.Errorf("record 1 = %+v, want commit xid=5 ts=1001", recs[1])
	}
	if recs[0].LSN == 0 || recs[1].LSN <= recs[0].LSN {
		t.Errorf("LSNs not ascending: %d, %d", recs[0].LSN, recs[1].LSN)
	}
}

func TestCloseDrainsUnflushed(t *testing.T) {
	mem := newMem()
	l, err := Open(mem, Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := l.AppendCommit(1, 10); err != nil {
		t.Fatalf("AppendCommit: %v", err)
	}
	// No Flush: Close's final drain must still make the record durable.
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, err := Open(mem, Config{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if recs := collect(t, l2); len(recs) != 1 || recs[0].Type != TypeCommit {
		t.Fatalf("replay after drain = %+v, want one commit", recs)
	}
}

func TestSegmentRotation(t *testing.T) {
	mem := newMem()
	l, err := Open(mem, Config{SegBlocks: 2}) // 16 KiB segments: ~1 page image each
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 10
	var last LSN
	for i := 0; i < n; i++ {
		if _, err := l.AppendPageImage(storage.Disk, "r", storage.BlockNum(i), testImage(byte(i)), uint32(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		lsn, err := l.AppendCommit(uint32(i), int64(i))
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		last = lsn
	}
	if err := l.Flush(last); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if st := l.Stats(); st.Seg == 0 {
		t.Fatalf("no rotation happened with 2-block segments: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, err := Open(mem, Config{SegBlocks: 2})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	recs := collect(t, l2)
	if len(recs) != 2*n {
		t.Fatalf("replayed %d records across segments, want %d", len(recs), 2*n)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].LSN < recs[i-1].End {
			t.Fatalf("record %d LSN %d overlaps previous end %d", i, recs[i].LSN, recs[i-1].End)
		}
	}
}

func TestGroupCommitConcurrent(t *testing.T) {
	mem := newMem()
	l, err := Open(mem, Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const committers = 32
	var wg sync.WaitGroup
	errs := make([]error, committers)
	for i := 0; i < committers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lsn, err := l.AppendCommit(uint32(i), int64(i))
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = l.Flush(lsn)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("committer %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, err := Open(mem, Config{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	seen := make(map[uint32]bool)
	for _, r := range collect(t, l2) {
		if r.Type == TypeCommit {
			seen[r.XID] = true
		}
	}
	if len(seen) != committers {
		t.Fatalf("recovered %d distinct commits, want %d", len(seen), committers)
	}
}

func TestTornTailTruncated(t *testing.T) {
	for _, tear := range []bool{false, true} {
		t.Run(fmt.Sprintf("tear=%v", tear), func(t *testing.T) {
			mem := newMem()
			cm := storage.NewCrashManager(mem, storage.CrashConfig{Seed: 42, TearWrites: tear})
			l, err := Open(cm, Config{})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			durableLSN, err := l.AppendCommit(1, 100)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Flush(durableLSN); err != nil {
				t.Fatal(err)
			}
			// A second commit is appended and its flush begins, but the
			// crash discards (or tears) the unsynced write: the record was
			// never acknowledged and must vanish on recovery.
			if _, err := l.AppendCommit(2, 200); err != nil {
				t.Fatal(err)
			}
			cm.CrashAfter(0) // die on the next mutating storage operation
			if err := l.Flush(l.End()); err == nil {
				t.Fatal("flush through a crash unexpectedly succeeded")
			}
			l.Close()

			l2, err := Open(cm.Crash(), Config{})
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			defer l2.Close()
			// The recovered log must be a prefix of what was appended: the
			// acknowledged commit always, the unacknowledged one only if the
			// torn write happened to land it in full (durability promises
			// cover acknowledged commits; in-flight ones may go either way).
			recs := collect(t, l2)
			if len(recs) == 0 || recs[0].Type != TypeCommit || recs[0].XID != 1 {
				t.Fatalf("recovered %+v, want the acknowledged commit xid=1 first", recs)
			}
			if len(recs) > 2 || (len(recs) == 2 && recs[1].XID != 2) {
				t.Fatalf("recovered %+v, not a prefix of the appended records", recs)
			}
			// The log must accept appends after truncation and stay intact.
			lsn, err := l2.AppendCommit(3, 300)
			if err != nil {
				t.Fatal(err)
			}
			if err := l2.Flush(lsn); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCorruptMidLogLoudError(t *testing.T) {
	mem := newMem()
	l, err := Open(mem, Config{SegBlocks: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Fill several segments so segment 0 has a durable successor.
	for i := 0; i < 6; i++ {
		lsn, err := l.AppendPageImage(storage.Disk, "r", storage.BlockNum(i), testImage(byte(i)), 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Flush(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip bytes in the middle of segment 0's first record.
	buf := make([]byte, page.Size)
	if err := mem.ReadBlock("pg_wal_00000000", 0, buf); err != nil {
		t.Fatal(err)
	}
	buf[200] ^= 0xFF
	if err := mem.WriteBlock("pg_wal_00000000", 0, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(mem, Config{SegBlocks: 2}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over mid-log corruption = %v, want ErrCorrupt", err)
	}
}

func TestCheckpointTruncatesSegments(t *testing.T) {
	mem := newMem()
	l, err := Open(mem, Config{SegBlocks: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 8; i++ {
		lsn, err := l.AppendPageImage(storage.Disk, "r", storage.BlockNum(i), testImage(byte(i)), 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Flush(lsn); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Stats()
	if before.Seg < 2 {
		t.Fatalf("expected several segments, got %+v", before)
	}
	redo := l.RedoPoint()
	if _, err := l.Checkpoint(redo, CheckpointMeta{}); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	after := l.Stats()
	if after.FirstSeg == 0 {
		t.Fatalf("truncation did not advance firstSeg: %+v", after)
	}
	for seg := uint64(0); seg < after.FirstSeg; seg++ {
		if mem.Exists(storage.RelName(fmt.Sprintf("pg_wal_%08d", seg))) {
			t.Errorf("segment %d still exists after truncation", seg)
		}
	}
	// Post-checkpoint commits land after the redo point and replay cleanly.
	lsn, err := l.AppendCommit(99, 999)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(lsn); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(mem, Config{SegBlocks: 2})
	if err != nil {
		t.Fatalf("reopen after truncation: %v", err)
	}
	defer l2.Close()
	var commits int
	for _, r := range collect(t, l2) {
		if r.Type == TypeCommit && r.XID == 99 {
			commits++
		}
		if r.LSN < redo && r.Type != TypeCheckpoint {
			t.Errorf("replay delivered pre-redo record %+v", r)
		}
	}
	if commits != 1 {
		t.Fatalf("post-checkpoint commit replayed %d times, want 1", commits)
	}
}

func TestReplayHonorsRedoPoint(t *testing.T) {
	mem := newMem()
	l, err := Open(mem, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendCommit(1, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Checkpoint(l.RedoPoint(), CheckpointMeta{}); err != nil {
		t.Fatal(err)
	}
	lsn, err := l.AppendCommit(2, 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(lsn); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(mem, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs := collect(t, l2)
	for _, r := range recs {
		if r.Type == TypeCommit && r.XID == 1 {
			t.Errorf("commit before the redo point replayed: %+v", r)
		}
	}
	var found bool
	for _, r := range recs {
		if r.Type == TypeCommit && r.XID == 2 {
			found = true
		}
	}
	if !found {
		t.Error("commit after the redo point missing from replay")
	}
}

func TestFreshOpenIdempotent(t *testing.T) {
	mem := newMem()
	for i := 0; i < 3; i++ {
		l, err := Open(mem, Config{})
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		if recs := collect(t, l); len(recs) != 0 {
			t.Fatalf("open %d: fresh log replayed %d records", i, len(recs))
		}
		if err := l.Close(); err != nil {
			t.Fatalf("close %d: %v", i, err)
		}
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	l, err := Open(newMem(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendCommit(1, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}
	// Flushing an already-durable LSN still succeeds (the fast path answers
	// from state); waiting on a not-yet-durable one must fail.
	if err := l.Flush(l.Durable()); err != nil {
		t.Fatalf("flush of durable LSN after close = %v, want nil", err)
	}
	if err := l.Flush(l.End() + 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("flush past end after close = %v, want ErrClosed", err)
	}
}
