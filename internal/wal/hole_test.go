package wal

import (
	"bytes"
	"testing"

	"postlob/internal/page"
	"postlob/internal/storage"
)

// slottedImage builds a checksummed slotted page the way the buffer pool
// prepares one for the log: items added, the free-space hole zeroed, then
// the stamp. The hole it returns is the page's own.
func slottedImage(t testing.TB, items ...[]byte) (img []byte, holeOff, holeLen int) {
	t.Helper()
	p := page.New(0)
	for _, it := range items {
		if _, err := p.AddItem(it); err != nil {
			t.Fatal(err)
		}
	}
	holeOff, holeLen = p.Hole()
	clear(p[holeOff : holeOff+holeLen])
	p.SetChecksum()
	return p, holeOff, holeLen
}

func TestHoleImageRoundTrip(t *testing.T) {
	cases := map[string][][]byte{
		"vacuumed chunk page": {[]byte("the one small tuple left")},
		"several items":       {bytes.Repeat([]byte{1}, 700), bytes.Repeat([]byte{2}, 1900), []byte("x")},
		"full chunk page":     {bytes.Repeat([]byte{7}, page.MaxItemSize(0))},
		"empty page":          nil,
	}
	for name, items := range cases {
		t.Run(name, func(t *testing.T) {
			img, off, n := slottedImage(t, items...)
			want := &Record{Type: TypePageImage, XID: 5, SM: storage.Disk, Rel: "lobj_16384_data", Blk: 9,
				Image: img, HoleOff: off, HoleLen: n}
			enc, err := appendRecord(nil, want)
			if err != nil {
				t.Fatal(err)
			}
			if size, _ := recordLen(want); size != len(enc) {
				t.Fatalf("recordLen = %d, encoded %d bytes", size, len(enc))
			}
			if n > 0 && len(enc) > page.Size-n+64 {
				t.Fatalf("a page with a %d-byte hole cost %d log bytes", n, len(enc))
			}
			got, err := decodeBody(enc[recHdrLen:])
			if err != nil {
				t.Fatal(err)
			}
			if got.Type != TypePageImage || got.HoleOff != want.HoleOff || got.HoleLen != want.HoleLen {
				t.Fatalf("decoded as %v hole [%d,+%d), want page image hole [%d,+%d)", got.Type, got.HoleOff, got.HoleLen, off, n)
			}
			if !bytes.Equal(got.Image, img) {
				t.Fatal("rebuilt page differs from the source image")
			}
			p := page.Page(got.Image)
			if err := p.VerifyChecksum(); err != nil {
				t.Fatalf("rebuilt page: %v", err)
			}
			if err := p.Check(); err != nil {
				t.Fatalf("rebuilt page: %v", err)
			}
			if p.NumSlots() != len(items) {
				t.Fatalf("rebuilt page has %d slots, want %d", p.NumSlots(), len(items))
			}
			for i, want := range items {
				if item, err := p.Item(page.SlotNum(i)); err != nil || !bytes.Equal(item, want) {
					t.Fatalf("slot %d of the rebuilt page: %v", i, err)
				}
			}
		})
	}
}

// The hole form has exactly one encoding per record and rejects bounds that
// leave the page.
func TestHoleImageRejectsBadBounds(t *testing.T) {
	img := testImage(1)
	for _, r := range []*Record{
		{Type: TypePageImage, Image: img, HoleOff: page.Size - 10, HoleLen: 11},
		{Type: TypePageImage, Image: img, HoleOff: -1, HoleLen: 4},
		{Type: TypePageImage, Image: img, HoleOff: 8, HoleLen: -4},
	} {
		if _, err := appendRecord(nil, r); err == nil {
			t.Errorf("hole [%d,+%d) encoded without error", r.HoleOff, r.HoleLen)
		}
	}
	enc, err := appendRecord(nil, &Record{Type: TypePageImage, Image: img, HoleOff: 100, HoleLen: 50})
	if err != nil {
		t.Fatal(err)
	}
	body := append([]byte(nil), enc[recHdrLen:]...)
	holeAt := 1 + 11 // type byte, fixed fields, empty relation name
	for name, patch := range map[string][2]byte{
		"empty hole in the hole form": {0, 0},
		"hole longer than its record": {51, 0},
	} {
		bad := append([]byte(nil), body...)
		bad[holeAt+2], bad[holeAt+3] = patch[0], patch[1]
		if _, err := decodeBody(bad); err == nil {
			t.Errorf("%s decoded without error", name)
		}
	}
}

// A log mixing plain images (all a log written before the hole form holds)
// with hole images replays both, across a reopen and across segment
// rotations that reuse the in-memory segment image.
func TestMixedFormatLogReplays(t *testing.T) {
	mem := newMem()
	l, err := Open(mem, Config{SegBlocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	type logged struct {
		img      []byte
		off, len int
	}
	var want []logged
	var last LSN
	for i := 0; i < 24; i++ {
		var w logged
		if i%3 == 0 {
			w.img = testImage(byte(i))
			last, err = l.AppendPageImage(storage.Disk, "lobj_1_idx", storage.BlockNum(i), w.img, uint32(i))
		} else {
			w.img, w.off, w.len = slottedImage(t, bytes.Repeat([]byte{byte(i)}, 100*i))
			last, err = l.AppendPageImageHole(storage.Disk, "lobj_1_data", storage.BlockNum(i), w.img, w.off, w.len, uint32(i))
		}
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, w)
	}
	if err := l.Flush(last); err != nil {
		t.Fatal(err)
	}
	if l.Stats().Seg == 0 {
		t.Fatal("the log never rotated; the test means to cross segments")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(mem, Config{SegBlocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs := collect(t, l2)
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		w := want[i]
		if r.Type != TypePageImage || r.Blk != storage.BlockNum(i) || r.HoleOff != w.off || r.HoleLen != w.len || !bytes.Equal(r.Image, w.img) {
			t.Fatalf("record %d replayed as %v blk %d hole [%d,+%d)", i, r.Type, r.Blk, r.HoleOff, r.HoleLen)
		}
	}
}

// discardWrites keeps a manager's namespace and drops its writes, so an
// allocation count sees the log's own work and not the memory device
// growing a relation.
type discardWrites struct{ storage.Manager }

func (discardWrites) WriteBlock(storage.RelName, storage.BlockNum, []byte) error    { return nil }
func (discardWrites) WriteBlocks(storage.RelName, storage.BlockNum, [][]byte) error { return nil }
func (discardWrites) Sync(storage.RelName) error                                    { return nil }

// The commit path appends one image per page a transaction dirtied and the
// flusher runs once per commit: neither may allocate in the steady state.
func TestAppendAndFlushDoNotAllocate(t *testing.T) {
	l, err := Open(discardWrites{newMem()}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	plain := testImage(3)
	holed, off, n := slottedImage(t, []byte("tuple"))
	appendBoth := func() {
		if _, err := l.AppendPageImage(storage.Disk, "lobj_16384_idx", 1, plain, 7); err != nil {
			t.Fatal(err)
		}
		if _, err := l.AppendPageImageHole(storage.Disk, "lobj_16384_data", 2, holed, off, n, 7); err != nil {
			t.Fatal(err)
		}
	}
	// The first flush sizes the flusher's buffers. Nothing kicks the flusher
	// goroutine here (no Flush call, no rotation), so the test may drive
	// flushOnce itself.
	appendBoth()
	l.flushOnce()
	if got := testing.AllocsPerRun(50, appendBoth); got != 0 {
		t.Errorf("appending two page images allocates %v times", got)
	}
	if got := testing.AllocsPerRun(50, func() {
		appendBoth()
		l.flushOnce()
	}); got != 0 {
		t.Errorf("append + flushOnce allocates %v times", got)
	}
	if d, e := l.Durable(), l.End(); d != e {
		t.Fatalf("durable %d, end %d after the last flushOnce", d, e)
	}
}
