package wal

// Native fuzz target for the WAL wire format: decoding arbitrary bytes must
// never panic, every successful decode must re-encode to an identical
// record, and the CRC framing must reject any single-byte corruption of a
// valid record. A checked-in corpus under testdata/fuzz seeds the search
// with every record type plus known-nasty shapes; check.sh runs the corpus
// as a smoke test on every invocation.

import (
	"bytes"
	"testing"

	"postlob/internal/page"
	"postlob/internal/storage"
)

// fuzzSeedRecords covers every record type with representative payloads.
func fuzzSeedRecords() []*Record {
	img := make([]byte, page.Size)
	for i := range img {
		img[i] = byte(i * 31)
	}
	// A slotted page as the pool logs it: free space zeroed and left out.
	slotted := page.New(0)
	slotted.AddItem([]byte("one small tuple on a vacuumed page"))
	holeOff, holeLen := slotted.Hole()
	return []*Record{
		{Type: TypePageImage, SM: storage.Mem, Rel: "lob_data_7", Blk: 3, Image: img, XID: 7},
		{Type: TypePageImage, SM: storage.Disk, Rel: "lobj_16384_data", Blk: 41, Image: slotted, XID: 8, HoleOff: holeOff, HoleLen: holeLen},
		{Type: TypePageImage, SM: storage.Disk, Rel: "lobj_16384_data", Blk: 42, Image: img, XID: 8, HoleOff: page.Size - 1, HoleLen: 1},
		{Type: TypeCommit, XID: 9, TS: 42},
		{Type: TypeAbort, XID: 11},
		{Type: TypeCheckpoint, Redo: 123456},
		{Type: TypeCheckpoint, Redo: 99, XID: 1000, TS: 512, Oldest: 970},
		{Type: TypeUnlink, SM: storage.Disk, Rel: "lob_idx_9"},
	}
}

func FuzzWALDecode(f *testing.F) {
	for _, r := range fuzzSeedRecords() {
		enc, err := appendRecord(nil, r)
		if err != nil {
			f.Fatalf("encode seed %v: %v", r.Type, err)
		}
		f.Add(enc[recHdrLen:]) // the record body, CRC framing stripped
	}
	f.Add([]byte{})
	f.Add([]byte{byte(TypePageImage)})
	f.Add([]byte{byte(wireHoleImage)})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, body []byte) {
		// Decoding arbitrary bytes must never panic; a successful decode
		// must survive an encode/decode round trip unchanged.
		r, err := decodeBody(body)
		if err == nil {
			enc, err := appendRecord(nil, r)
			if err != nil {
				t.Fatalf("decoded record does not re-encode: %v", err)
			}
			r2, err := decodeBody(enc[recHdrLen:])
			if err != nil {
				t.Fatalf("re-encoded record does not decode: %v", err)
			}
			if r2.Type != r.Type || r2.XID != r.XID || r2.TS != r.TS ||
				r2.SM != r.SM || r2.Rel != r.Rel || r2.Blk != r.Blk ||
				r2.Redo != r.Redo || r2.Oldest != r.Oldest || !bytes.Equal(r2.Image, r.Image) ||
				r2.HoleOff != r.HoleOff || r2.HoleLen != r.HoleLen {
				t.Fatalf("round trip changed the record: %+v != %+v", r2, r)
			}
		}

		// Scanning a segment whose payload (or whole image, header included)
		// is arbitrary bytes must never panic; errors and truncation are the
		// expected outcomes.
		l := &Log{segBlocks: 8, segBytes: 8 * page.Size}
		img := make([]byte, l.segBytes)
		stampSegHeader(img, 0)
		copy(img[segHdrLen:], body)
		nop := func(*Record) error { return nil }
		if _, err := l.scanSegment(0, img, nop); err == nil {
			_ = err // torn tails and garbage may scan clean up to the damage
		}
		clobbered := make([]byte, l.segBytes)
		copy(clobbered, body)
		l.scanSegment(0, clobbered, nop)

		// A correctly framed record must scan back exactly once, and any
		// single-byte corruption of its body must be rejected by the CRC.
		if err != nil || len(body) == 0 {
			return // need a valid record to frame
		}
		framed, err := appendRecord(nil, r)
		if err != nil || segHdrLen+len(framed) > len(img) {
			return
		}
		seg := make([]byte, l.segBytes)
		stampSegHeader(seg, 0)
		copy(seg[segHdrLen:], framed)
		found := 0
		if _, err := l.scanSegment(0, seg, func(*Record) error { found++; return nil }); err != nil {
			t.Fatalf("framed valid record fails to scan: %v", err)
		}
		if found != 1 {
			t.Fatalf("framed valid record scanned %d times", found)
		}
		flip := int(body[0])%len(body) + segHdrLen + recHdrLen
		seg[flip] ^= 0xa5
		found = 0
		tail, serr := l.scanSegment(0, seg, func(*Record) error { found++; return nil })
		if found != 0 {
			t.Fatalf("corrupted record passed the CRC (scan reached %d, err %v)", tail, serr)
		}
	})
}
