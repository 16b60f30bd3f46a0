package gateway

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"postlob/internal/core"
	"postlob/internal/crcframe"
)

func mustEncode(t *testing.T, f *Frame) []byte {
	t.Helper()
	b, err := AppendFrame(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// decodeExtents is DecodeExtents into a fresh slice.
func decodeExtents(p []byte) ([]core.RawExtent, error) { return DecodeExtents(nil, p) }

// reCRC reseals a mutated frame so structural checks past the envelope can
// be exercised in isolation.
func reCRC(data []byte) { crcframe.Seal(data) }

func TestFrameRoundTrip(t *testing.T) {
	frames := []*Frame{
		{Kind: KindHello, Payload: []byte("negotiate")},
		{Kind: KindReq, Stream: 7, Payload: []byte{0}},
		{Kind: KindResp, Stream: 1 << 30, Payload: nil},
		{Kind: KindData, Flags: FlagFIN, Stream: 3},
		{Kind: KindData, Stream: 9, Payload: bytes.Repeat([]byte{0xAB}, MaxPayload)},
		{Kind: KindExtents, Stream: 2, Payload: []byte("extents")},
		{Kind: KindErr, Stream: 5, Payload: []byte("boom")},
		{Kind: KindCredit, Stream: 4, Payload: CreditPayload(3)},
	}
	for _, f := range frames {
		enc := mustEncode(t, f)
		got, n, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("%v frame: %v", f.Kind, err)
		}
		if n != len(enc) {
			t.Fatalf("%v frame: consumed %d of %d", f.Kind, n, len(enc))
		}
		if got.Kind != f.Kind || got.Flags != f.Flags || got.Stream != f.Stream || !bytes.Equal(got.Payload, f.Payload) {
			t.Fatalf("%v frame did not round-trip", f.Kind)
		}
	}
}

// TestFrameBackToBack decodes two concatenated frames by consumed offset.
func TestFrameBackToBack(t *testing.T) {
	a := mustEncode(t, &Frame{Kind: KindData, Stream: 1, Payload: []byte("first")})
	b := mustEncode(t, &Frame{Kind: KindData, Stream: 2, Payload: []byte("second")})
	buf := append(append([]byte{}, a...), b...)
	f1, n1, err := DecodeFrame(buf)
	if err != nil || string(f1.Payload) != "first" {
		t.Fatalf("first: %v", err)
	}
	f2, n2, err := DecodeFrame(buf[n1:])
	if err != nil || string(f2.Payload) != "second" {
		t.Fatalf("second: %v", err)
	}
	if n1+n2 != len(buf) {
		t.Fatalf("consumed %d+%d of %d", n1, n2, len(buf))
	}
}

// TestFrameBitFlips is the satellite contract: a torn or bit-flipped frame
// must error, never misparse. Every single-bit corruption of a valid frame
// has to fail decoding.
func TestFrameBitFlips(t *testing.T) {
	enc := mustEncode(t, &Frame{Kind: KindData, Flags: FlagFIN, Stream: 42, Payload: []byte("some chunk payload")})
	for i := range enc {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte{}, enc...)
			mut[i] ^= 1 << bit
			if f, _, err := DecodeFrame(mut); err == nil {
				t.Fatalf("flip byte %d bit %d: decoded %v frame instead of failing", i, bit, f.Kind)
			}
		}
	}
}

func TestFrameTruncation(t *testing.T) {
	enc := mustEncode(t, &Frame{Kind: KindResp, Stream: 9, Payload: []byte("partial")})
	for n := 0; n < len(enc); n++ {
		if _, _, err := DecodeFrame(enc[:n]); err == nil {
			t.Fatalf("truncated to %d of %d bytes: decoded", n, len(enc))
		}
	}
}

func TestFramePayloadLimit(t *testing.T) {
	if _, err := AppendFrame(nil, &Frame{Kind: KindData, Payload: make([]byte, MaxPayload+1)}); err == nil {
		t.Fatal("oversize payload encoded")
	}
	// A length field past the limit must be refused before any allocation.
	// The length counts the 8-byte stream header as well as the payload.
	var hdr [HdrLen]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(maxBody+1))
	if _, _, err := DecodeFrame(hdr[:]); err == nil || !strings.Contains(err.Error(), "body length") {
		t.Fatalf("oversize length: %v", err)
	}
	if _, _, err := ReadFrameInto(bytes.NewReader(hdr[:]), nil); err == nil || !strings.Contains(err.Error(), "body length") {
		t.Fatalf("ReadFrameInto oversize length: %v", err)
	}
}

func TestFrameStructuralChecks(t *testing.T) {
	// Unknown kind, valid CRC.
	enc := mustEncode(t, &Frame{Kind: KindData, Payload: []byte("x")})
	enc[8] = 200
	reCRC(enc)
	if _, _, err := DecodeFrame(enc); err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Fatalf("unknown kind: %v", err)
	}
	// Reserved bytes set, valid CRC.
	enc = mustEncode(t, &Frame{Kind: KindData, Payload: []byte("x")})
	enc[10] = 1
	reCRC(enc)
	if _, _, err := DecodeFrame(enc); err == nil || !strings.Contains(err.Error(), "reserved") {
		t.Fatalf("reserved bytes: %v", err)
	}
}

func TestReadWriteFrame(t *testing.T) {
	want := &Frame{Kind: KindExtents, Stream: 11, Payload: []byte("over the wire")}
	got, _, err := ReadFrameInto(bytes.NewReader(mustEncode(t, want)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != want.Kind || got.Stream != want.Stream || !bytes.Equal(got.Payload, want.Payload) {
		t.Fatal("ReadFrameInto round-trip mismatch")
	}
	// A stream that ends mid-frame reports a transport error, not a parse.
	enc := mustEncode(t, want)
	if _, _, err := ReadFrameInto(bytes.NewReader(enc[:len(enc)-3]), nil); err == nil {
		t.Fatal("torn stream decoded")
	}
}

func TestExtentCodecRoundTrip(t *testing.T) {
	extents := []core.RawExtent{
		{LogStart: 0, Skip: 0, Take: 5, Encoded: []byte("hello")},
		{LogStart: 8000, Skip: 3, Take: 2, Encoded: []byte("world")},
		{LogStart: 1 << 40, Skip: 0, Take: 0, Encoded: nil},
	}
	var p []byte
	for i := range extents {
		p = appendExtent(p, &extents[i])
	}
	got, err := decodeExtents(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(extents) {
		t.Fatalf("decoded %d extents, want %d", len(got), len(extents))
	}
	for i := range got {
		w, g := extents[i], got[i]
		if g.LogStart != w.LogStart || g.Skip != w.Skip || g.Take != w.Take || !bytes.Equal(g.Encoded, w.Encoded) {
			t.Fatalf("extent %d mismatch", i)
		}
	}
}

func TestExtentCodecMalformed(t *testing.T) {
	e := core.RawExtent{LogStart: 100, Skip: 1, Take: 2, Encoded: []byte("abcdef")}
	p := appendExtent(nil, &e)
	// Truncated header.
	if _, err := decodeExtents(p[:extentHdr-1]); err == nil {
		t.Fatal("truncated header decoded")
	}
	// Body shorter than encLen claims.
	if _, err := decodeExtents(p[:len(p)-1]); err == nil {
		t.Fatal("truncated body decoded")
	}
	// Absurd bounds.
	bad := append([]byte{}, p...)
	binary.LittleEndian.PutUint32(bad[12:], uint32(MaxPayload+1)) // take
	if _, err := decodeExtents(bad); err == nil {
		t.Fatal("oversize take decoded")
	}
}

func TestCreditCodec(t *testing.T) {
	for _, n := range []uint32{1, 2, MaxWindow} {
		got, err := DecodeCredit(CreditPayload(n))
		if err != nil || got != n {
			t.Fatalf("credit %d: got %d, %v", n, got, err)
		}
	}
	for _, bad := range [][]byte{nil, {1}, {1, 2, 3, 4, 5}, CreditPayload(0), CreditPayload(MaxWindow + 1)} {
		if _, err := DecodeCredit(bad); err == nil {
			t.Fatalf("credit payload %v accepted", bad)
		}
	}
}

// TestHelloRefusesProtocol5: a version-5 server refuses raw reads of
// u-files and p-files, which a version-6 client no longer falls back from,
// so Hello refuses the mismatch up front rather than letting such a read
// fail. Version 4 and older stay refused too.
func TestHelloRefusesProtocol5(t *testing.T) {
	for _, old := range []int{4, 5} {
		c := &gwConn{}
		if err := c.negotiate(&Hello{Proto: old, Chunk: DefaultChunk, Window: DefaultWindow}); err == nil {
			t.Fatalf("protocol %d hello accepted", old)
		}
	}
	c := &gwConn{chunk: DefaultChunk, window: DefaultWindow}
	if err := c.negotiate(&Hello{Proto: Proto, Chunk: DefaultChunk, Window: DefaultWindow}); err != nil {
		t.Fatal(err)
	}
}
