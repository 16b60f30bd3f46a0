package repl

// Native fuzz target for replication frame bodies: whatever bytes pass the
// crcframe envelope (internal/crcframe's FuzzDecode covers the envelope
// itself), decoding must never panic, every failure must be
// crcframe.ErrFrame, and every accepted data body must re-encode to the
// same bytes. A checked-in
// corpus under testdata/fuzz seeds the search with every frame kind plus
// known-nasty shapes; check.sh runs it as a smoke test on every invocation.

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"postlob/internal/crcframe"
	"postlob/internal/page"
	"postlob/internal/storage"
)

// fuzzSeedFrames returns one wire frame of every kind as the sender and
// receiver encode them, each control message as the first of its stream.
func fuzzSeedFrames(tb testing.TB) [][]byte {
	img := make([]byte, page.Size)
	img2 := make([]byte, page.Size)
	for i := range img {
		img[i] = byte(i * 31)
		img2[i] = byte(i * 7)
	}
	var frames [][]byte
	send := func(fill func(w *wire) error) {
		var buf bytes.Buffer
		if err := fill(newWire(&buf)); err != nil {
			tb.Fatal(err)
		}
		frames = append(frames, buf.Bytes())
	}
	msg := func(k Kind, v any) { send(func(w *wire) error { return w.sendMsg(k, v) }) }
	blob := func(k Kind, at uint64, b []byte) { send(func(w *wire) error { return w.sendBlob(k, at, b) }) }

	msg(KindHello, &Hello{Proto: Proto, Name: "replica-1", Durable: 16, CatVersion: 3})
	msg(KindHelloAck, &HelloAck{Proto: Proto, Mode: "stream", End: 8192, SegBytes: 65536})
	msg(KindHelloAck, &HelloAck{Proto: Proto, Mode: "base", Base: 4112, End: 4112, SegBytes: 65536})
	msg(KindHelloAck, &HelloAck{Proto: Proto, Err: "protocol 1, want 2"})
	blob(KindRecords, 16, []byte{0x10, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3})
	blob(KindCatalog, 7, []byte(`{"classes":[],"objects":[]}`))
	blob(KindTxnState, 0, []byte{9, 8, 7, 6, 5})
	send(func(w *wire) error {
		rel := RelRef{SM: storage.Disk, Rel: "lobj_16391_data"}
		return w.flush(append(appendBaseHdr(w.start(KindBaseBlocks), rel, 4, 2), append(img, img2...)...))
	})
	blob(KindBaseDone, 4096, nil)
	msg(KindStatus, &Status{Durable: 4096, Applied: 8192})
	return frames
}

// fuzzNastyShapes are raw byte strings no valid encoder emits: truncated
// headers, zero and oversized length fields, and a CRC over nothing.
func fuzzNastyShapes() [][]byte {
	return [][]byte{
		{},
		{0x01},
		{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07},       // one byte short of a header
		{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}, // zero-length body
		{0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00}, // 4 GiB length field
		{0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}, // length 4, no body
	}
}

// control returns a fresh value for a control message of kind k, or nil
// for a data kind.
func control(k Kind) any {
	switch k {
	case KindHello:
		return new(Hello)
	case KindHelloAck:
		return new(HelloAck)
	case KindStatus:
		return new(Status)
	}
	return nil
}

// decodeAny runs one frame through the receiving side's checks: the
// envelope, then the body, a control message as the first of a fresh
// stream. It returns the decoded control value or data.
func decodeAny(frame []byte) (any, error) {
	body, _, err := crcframe.Decode(frame, maxBody)
	if err != nil {
		return nil, err
	}
	k, p := Kind(body[0]), body[1:]
	if v := control(k); v != nil {
		return v, crcframe.NewMsgDecoder().Decode(p, v)
	}
	return parseData(k, p)
}

// encodeData is the sender's encoding of a decoded data message.
func encodeData(k Kind, d dataMsg) []byte {
	var buf bytes.Buffer
	w := newWire(&buf)
	b := w.start(k)
	if k == KindBaseBlocks {
		b = append(appendBaseHdr(b, d.rel, uint32(d.at), len(d.bytes)/page.Size), d.bytes...)
	} else {
		b = appendBlob(b, d.at, d.bytes)
	}
	w.flush(b)
	return buf.Bytes()
}

// seal frames body, a hand-built or cut-down body, with an honest CRC.
func seal(body []byte) []byte {
	frame := append(make([]byte, crcframe.HdrLen), body...)
	crcframe.Seal(frame)
	return frame
}

func FuzzReplFrameDecode(f *testing.F) {
	for _, b := range fuzzSeedFrames(f) {
		f.Add(b)
	}
	for _, b := range fuzzNastyShapes() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		// Decoding arbitrary bytes must never panic; failures must wear the
		// ErrFrame label so the receiver knows to tear down and resync.
		v, err := decodeAny(frame)
		if err != nil {
			if !errors.Is(err, crcframe.ErrFrame) {
				t.Fatalf("decode failure without crcframe.ErrFrame: %v", err)
			}
			return
		}
		body, n, _ := crcframe.Decode(frame, maxBody)
		k := Kind(body[0])
		if d, ok := v.(dataMsg); ok {
			// A data body has exactly one encoding.
			if enc := encodeData(k, d); !bytes.Equal(enc, frame[:n]) {
				t.Fatalf("%v frame re-encodes to %x, want %x", k, enc, frame[:n])
			}
			return
		}
		// A control message survives a round trip through a fresh stream.
		var buf bytes.Buffer
		if err := newWire(&buf).sendMsg(k, v); err != nil {
			t.Fatalf("decoded %v does not re-encode: %v", k, err)
		}
		v2, err := decodeAny(buf.Bytes())
		if err != nil || !reflect.DeepEqual(v, v2) {
			t.Fatalf("round trip changed the %v message: %+v != %+v (%v)", k, v2, v, err)
		}
	})
}

// TestFrameEnvelopeRejectsTruncation feeds every proper prefix of a valid
// frame to the decoder: each must fail, none may panic, and reading the
// same prefix off a connection must report a torn stream, not a frame.
func TestFrameEnvelopeRejectsTruncation(t *testing.T) {
	read := func(b []byte) error {
		_, _, err := newWire(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(b), io.Discard}).next()
		return err
	}
	for _, frame := range fuzzSeedFrames(t) {
		k := Kind(frame[crcframe.HdrLen])
		step := 1
		if len(frame) > 512 {
			step = 37 // sample long frames; exhaustive on short ones
		}
		for cut := 0; cut < len(frame); cut += step {
			if _, err := decodeAny(frame[:cut]); err == nil {
				t.Fatalf("%v frame truncated to %d of %d bytes decoded", k, cut, len(frame))
			}
			if err := read(frame[:cut]); err == nil {
				t.Fatalf("%v frame truncated to %d of %d bytes read", k, cut, len(frame))
			}
		}
		// The whole frame, for contrast, reads clean both ways.
		if _, err := decodeAny(frame); err != nil {
			t.Fatalf("%v frame fails intact: %v", k, err)
		}
		if err := read(frame); err != nil {
			t.Fatalf("%v frame fails intact read: %v", k, err)
		}
	}
}

// TestFrameEnvelopeRejectsBitFlips corrupts every byte position of every
// seed frame in turn (sampling long bodies): header flips and body flips
// alike must fail loudly with crcframe.ErrFrame, never decode to a message.
func TestFrameEnvelopeRejectsBitFlips(t *testing.T) {
	for _, frame := range fuzzSeedFrames(t) {
		k := Kind(frame[crcframe.HdrLen])
		step := 1
		if len(frame) > 512 {
			step = 13
		}
		for off := 0; off < len(frame); off += step {
			mut := append([]byte(nil), frame...)
			mut[off] ^= 0x40
			v, err := decodeAny(mut)
			if err == nil {
				t.Fatalf("%v frame with byte %d flipped decoded to %+v", k, off, v)
			}
			if !errors.Is(err, crcframe.ErrFrame) {
				t.Fatalf("%v frame flip at %d: error %v is not crcframe.ErrFrame", k, off, err)
			}
		}
	}
}

// TestFrameValidateRejectsForgeries builds bodies that pass the CRC (they
// are honestly sealed) but carry structurally invalid content, as a buggy
// or hostile peer could: each of the forgeries below, and every proper
// prefix of every valid body. The receiver parses a whole body before it
// applies any of it, so each must fail as crcframe.ErrFrame here.
func TestFrameValidateRejectsForgeries(t *testing.T) {
	page1 := make([]byte, page.Size)
	rel := RelRef{SM: storage.Disk, Rel: "r"}
	base := func(r RelRef, pages int, images []byte) []byte {
		return append(appendBaseHdr([]byte{byte(KindBaseBlocks)}, r, 0, pages), images...)
	}
	forged := map[string][]byte{
		"unknown kind":      {99},
		"empty records":     appendBlob([]byte{byte(KindRecords)}, 16, nil),
		"empty txn state":   appendBlob([]byte{byte(KindTxnState)}, 0, nil),
		"empty catalog":     appendBlob([]byte{byte(KindCatalog)}, 7, nil),
		"base done data":    appendBlob([]byte{byte(KindBaseDone)}, 4096, []byte{1}),
		"zero pages":        base(rel, 0, nil),
		"short page":        base(rel, 1, make([]byte, 100)),
		"oversized run":     base(rel, maxBasePages+1, make([]byte, (maxBasePages+1)*page.Size)),
		"huge rel name":     base(RelRef{SM: storage.Disk, Rel: storage.RelName(make([]byte, maxRelLen+1))}, 1, page1),
		"empty rel name":    base(RelRef{SM: storage.Disk}, 1, page1),
		"records len short": append(appendBlob([]byte{byte(KindRecords)}, 16, []byte{1, 2, 3}), 4),
	}
	for name, body := range forged {
		if _, err := decodeAny(seal(body)); !errors.Is(err, crcframe.ErrFrame) {
			t.Errorf("forgery %q decoded without crcframe.ErrFrame: %v", name, err)
		}
	}
	for _, frame := range fuzzSeedFrames(t) {
		body := frame[crcframe.HdrLen:]
		for cut := 0; cut < len(body); cut++ {
			if v, err := decodeAny(seal(body[:cut])); !errors.Is(err, crcframe.ErrFrame) {
				t.Fatalf("%v body cut to %d of %d bytes: %+v, %v", Kind(body[0]), cut, len(body), v, err)
			}
		}
	}
}
