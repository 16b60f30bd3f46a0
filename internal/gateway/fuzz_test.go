package gateway

import (
	"bytes"
	"errors"
	"testing"

	"postlob/internal/core"
	"postlob/internal/crcframe"
)

// FuzzChunkFrameDecode is the satellite contract on the v2 envelope: for
// arbitrary input, DecodeFrame either errors or yields a frame whose
// canonical re-encoding is byte-identical to the consumed prefix. A torn or
// bit-flipped frame can never silently misparse, and the nested payload
// decoders never panic on what the envelope admits.
func FuzzChunkFrameDecode(f *testing.F) {
	seed := func(fr *Frame) {
		if b, err := AppendFrame(nil, fr); err == nil {
			f.Add(b)
			// A flipped-CRC and a truncated variant of every valid seed.
			mut := append([]byte{}, b...)
			mut[4] ^= 0xFF
			f.Add(mut)
			f.Add(b[:len(b)-1])
		}
	}
	seed(&Frame{Kind: KindHello, Payload: []byte("hello")})
	seed(&Frame{Kind: KindReq, Stream: 1, Payload: []byte{3, 0, 0}})
	seed(&Frame{Kind: KindResp, Stream: 2})
	seed(&Frame{Kind: KindData, Flags: FlagFIN, Stream: 3, Payload: []byte("chunk")})
	ext := appendExtent(nil, &core.RawExtent{LogStart: 64, Skip: 1, Take: 3, Encoded: []byte("zzzzz")})
	seed(&Frame{Kind: KindExtents, Stream: 4, Payload: ext})
	seed(&Frame{Kind: KindErr, Stream: 5, Payload: []byte("boom")})
	seed(&Frame{Kind: KindCredit, Stream: 6, Payload: CreditPayload(2)})
	// Control messages as a connection's first frames carry them: type
	// definitions, then the value.
	seed(&Frame{Kind: KindHello, Payload: firstMsg(f, &Hello{Proto: Proto, Chunk: DefaultChunk, Window: DefaultWindow})})
	seed(&Frame{Kind: KindReq, Stream: 7, Payload: firstMsg(f, &Req{Op: OpRawRead, Handle: 1, Offset: 4096, N: 1 << 20})})
	seed(&Frame{Kind: KindResp, Stream: 8, Payload: firstMsg(f, &Resp{Size: 1 << 20, N: 4096})})
	f.Add([]byte("not a frame at all"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := DecodeFrame(data)
		if err != nil {
			if fr != nil {
				t.Fatal("error with non-nil frame")
			}
			return
		}
		if n < HdrLen || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		enc, eerr := AppendFrame(nil, fr)
		if eerr != nil {
			t.Fatalf("decoded frame does not re-encode: %v", eerr)
		}
		if !bytes.Equal(enc, data[:n]) {
			t.Fatalf("re-encoding differs from consumed prefix")
		}
		// The payload decoders behind the envelope must error, not panic.
		switch fr.Kind {
		case KindExtents:
			decodeExtents(fr.Payload)
		case KindCredit:
			DecodeCredit(fr.Payload)
		case KindHello:
			var h Hello
			crcframe.NewMsgDecoder().Decode(fr.Payload, &h)
		case KindReq:
			var r Req
			crcframe.NewMsgDecoder().Decode(fr.Payload, &r)
		case KindResp:
			var r Resp
			crcframe.NewMsgDecoder().Decode(fr.Payload, &r)
		}
	})
}

// FuzzRangeParse guards the HTTP frontend's Range parser: no panics, and
// every accepted range is well-formed within the object.
func FuzzRangeParse(f *testing.F) {
	f.Add("", int64(100))
	f.Add("bytes=0-99", int64(100))
	f.Add("bytes=50-", int64(100))
	f.Add("bytes=-10", int64(100))
	f.Add("bytes=0-0", int64(1))
	f.Add("bytes=5-4", int64(100))
	f.Add("bytes=0-99,200-299", int64(1000))
	f.Add("bytes=9223372036854775807-9223372036854775807", int64(100))
	f.Add("bytes=0-", int64(0))
	f.Add("items=0-99", int64(100))
	f.Add("bytes= 1 - 2 ", int64(100))
	f.Fuzz(func(t *testing.T, h string, size int64) {
		if size < 0 {
			size = 0
		}
		off, end, ok, err := parseRange(h, size)
		if err != nil {
			return // unsatisfiable: the handler answers 416
		}
		if !ok {
			if off != 0 || end != size {
				t.Fatalf("ignored range %q returned [%d,%d), want whole object", h, off, end)
			}
			return
		}
		if off < 0 || off > end || end > size {
			t.Fatalf("range %q (size %d) → invalid [%d,%d)", h, size, off, end)
		}
	})
}

// firstMsg is v's payload as the first message of a fresh connection.
func firstMsg(f *testing.F, v any) []byte {
	p, err := crcframe.NewMsgEncoder().Encode(v)
	if err != nil {
		f.Fatal(err)
	}
	return p
}

// FuzzReadFrameInto reads a fuzzed byte stream frame by frame through one
// reused buffer and holds every result to DecodeFrame on a fresh copy of
// the bytes it consumed: the same frame, or the same refusal. A stale byte
// left in the buffer by an earlier, larger frame can never show through.
func FuzzReadFrameInto(f *testing.F) {
	enc := func(fr *Frame) []byte {
		b, err := AppendFrame(nil, fr)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	big := enc(&Frame{Kind: KindExtents, Stream: 3, Payload: bytes.Repeat([]byte{0xEE}, 300)})
	small := enc(&Frame{Kind: KindData, Flags: FlagFIN, Stream: 3, Payload: []byte("tail")})
	credit := enc(&Frame{Kind: KindCredit, Stream: 3, Payload: CreditPayload(1)})
	f.Add(bytes.Join([][]byte{big, small, credit, small}, nil))
	f.Add(bytes.Join([][]byte{big, small[:len(small)-2]}, nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var buf []byte
		for {
			at := len(data) - r.Len()
			got, b, err := ReadFrameInto(r, buf)
			buf = b
			consumed := data[at : len(data)-r.Len()]
			if err != nil && !errors.Is(err, ErrFrame) {
				return // the stream ended mid-frame
			}
			want, n, werr := DecodeFrame(append([]byte(nil), consumed...))
			if err != nil {
				if werr == nil {
					t.Fatalf("ReadFrameInto refused %x (%v); DecodeFrame accepts it", consumed, err)
				}
				return
			}
			if werr != nil || n != len(consumed) {
				t.Fatalf("ReadFrameInto read %d bytes as a frame; DecodeFrame: %d bytes, %v", len(consumed), n, werr)
			}
			if got.Kind != want.Kind || got.Flags != want.Flags || got.Stream != want.Stream || !bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("ReadFrameInto frame %+v differs from DecodeFrame's %+v", got, *want)
			}
		}
	})
}
