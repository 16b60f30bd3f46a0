// Package gateway is the streaming multi-protocol front door: one
// chunk-granular streaming core under two network frontends.
//
// The stream protocol carries length-prefixed CRC-framed chunks on
// per-connection multiplexed streams: a client pipelines requests without
// waiting for responses, large-object reads and writes move in
// chunk-granular frames (the server touches O(chunk-window) memory per
// connection, never the whole object), and a bounded per-stream credit
// window gives end-to-end backpressure. The HTTP frontend exposes the same
// core as an S3-style object store over the Inversion file system.
//
// The design point carried from the paper (§3) still holds: raw reads ship
// stored compressed extents and the *client* decompresses just in time —
// but now extents stream as they are fetched instead of staging the whole
// range on the server first.
package gateway

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"postlob/internal/crcframe"
)

// Proto is the streaming protocol version exchanged in Hello frames.
// Version 3 carried control messages as one gob stream per connection
// direction instead of a self-contained gob payload per frame. Version 4
// frames in the shared crcframe envelope, whose length field counts the
// whole body, stream header included.
const Proto = 4

// Frame kinds.
type Kind uint8

const (
	// KindHello opens a connection: client proposes chunk/window limits,
	// server answers with the negotiated (clamped) values.
	KindHello Kind = 1
	// KindReq carries one Req on a fresh stream (see crcframe.MsgEncoder).
	KindReq Kind = 2
	// KindResp completes a stream's request with one Resp.
	KindResp Kind = 3
	// KindData carries raw logical object bytes: server→client for
	// server-decoded streaming reads, client→server for streaming writes.
	// FlagFIN marks the last frame of the stream's data phase.
	KindData Kind = 4
	// KindExtents carries compactly encoded raw extents (compressed, the
	// client decodes just in time) for one chunk of a streaming raw read.
	KindExtents Kind = 5
	// KindErr aborts a stream with an error message.
	KindErr Kind = 6
	// KindCredit grants the peer more in-flight frames on a stream: the
	// payload is a uint32 count of additional data/extent frames the
	// sender may emit. This is the backpressure edge of the window.
	KindCredit Kind = 7
)

func (k Kind) String() string {
	switch k {
	case KindHello:
		return "hello"
	case KindReq:
		return "req"
	case KindResp:
		return "resp"
	case KindData:
		return "data"
	case KindExtents:
		return "extents"
	case KindErr:
		return "err"
	case KindCredit:
		return "credit"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Frame flags.
const (
	// FlagFIN ends a stream's data phase (last KindData frame of a write,
	// or an empty terminator).
	FlagFIN = 1
)

// Framing limits and defaults.
const (
	// HdrLen is the fixed frame header size: the crcframe envelope header,
	// then the kind, flags, reserved bytes and stream id that open its body.
	HdrLen = crcframe.HdrLen + 8
	// MaxPayload bounds one frame's payload before any allocation: the
	// largest chunk (1 MiB) plus slack for extent encoding overhead and
	// incompressible codec expansion.
	MaxPayload = (1 << 20) + (1 << 16)
	// MaxChunk is the largest negotiable chunk size.
	MaxChunk = 1 << 20
	// DefaultChunk is the chunk granularity of streamed objects: the unit
	// of server-side buffering, framing, and read-ahead.
	DefaultChunk = 256 << 10
	// DefaultWindow is the per-stream credit window in frames: how many
	// data/extent frames may be in flight before the sender must wait for
	// the receiver's credit.
	DefaultWindow = 8
	// MaxWindow bounds the negotiable window.
	MaxWindow = 64

	// streamHdr is the part of HdrLen inside the envelope body, and maxBody
	// bounds that body: the stream header and the largest payload.
	streamHdr = HdrLen - crcframe.HdrLen
	maxBody   = streamHdr + MaxPayload
)

// Frame is one decoded protocol frame.
//
// The wire layout is one crcframe envelope whose body opens with an 8-byte
// stream header, 16 bytes in all before the payload:
//
//	0:4   body length, 8 + payload length (uint32 LE)
//	4:8   CRC-32 (IEEE) over the body, bytes [8, end) (uint32 LE)
//	8     kind (uint8)
//	9     flags (uint8)
//	10:12 reserved, must be zero
//	12:16 stream id (uint32 LE)
//	16:   payload
//
// The CRC covers the kind, flags, reserved bytes, stream id, and payload,
// so a torn or bit-flipped frame — header or body — fails loudly at the
// envelope before any field is interpreted.
type Frame struct {
	Kind    Kind
	Flags   uint8
	Stream  uint32
	Payload []byte
}

// ErrFrame reports a frame that failed envelope or structural validation.
// The receiver treats it as a torn connection: drop and resynchronise via
// a fresh dial.
var ErrFrame = crcframe.ErrFrame

// AppendFrame appends f's wire encoding to dst and returns the extended
// slice. Payloads over MaxPayload are an encoding error.
func AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	start := len(dst)
	dst = append(dst, make([]byte, HdrLen)...)
	dst = append(dst, f.Payload...)
	if err := sealFrame(dst[start:], f.Kind, f.Flags, f.Stream); err != nil {
		return dst[:start], err
	}
	return dst, nil
}

// sealFrame writes the header of the frame in b, whose payload already
// follows HdrLen bytes reserved for it, so a frame whose payload was built
// in place ships without another copy.
func sealFrame(b []byte, k Kind, flags uint8, stream uint32) error {
	n := len(b) - HdrLen
	if n > MaxPayload {
		return fmt.Errorf("gateway: %v frame payload %d bytes exceeds limit %d", k, n, MaxPayload)
	}
	b[8], b[9], b[10], b[11] = uint8(k), flags, 0, 0
	binary.LittleEndian.PutUint32(b[12:], stream)
	crcframe.Seal(b)
	return nil
}

// DecodeFrame parses one frame from the front of data, returning the frame
// and the bytes consumed. The returned payload aliases data. Torn,
// truncated, or bit-flipped input fails the CRC or the structural checks —
// it never yields a frame that silently misparses.
func DecodeFrame(data []byte) (*Frame, int, error) {
	body, n, err := crcframe.Decode(data, maxBody)
	if err != nil {
		return nil, 0, err
	}
	f, err := parseBody(body)
	if err != nil {
		return nil, 0, err
	}
	return &f, n, nil
}

// parseBody checks the stream header that opens a CRC-verified body.
func parseBody(body []byte) (Frame, error) {
	if len(body) < streamHdr {
		return Frame{}, fmt.Errorf("%w: %d-byte body holds no stream header", ErrFrame, len(body))
	}
	if k := Kind(body[0]); k < KindHello || k > KindCredit {
		return Frame{}, fmt.Errorf("%w: unknown kind %d", ErrFrame, body[0])
	}
	if body[2] != 0 || body[3] != 0 {
		return Frame{}, fmt.Errorf("%w: reserved header bytes set", ErrFrame)
	}
	return Frame{
		Kind:    Kind(body[0]),
		Flags:   body[1],
		Stream:  binary.LittleEndian.Uint32(body[4:]),
		Payload: body[streamHdr:],
	}, nil
}

// ReadFrameInto reads one frame from r into buf, reusing its capacity and
// growing it only when the frame does not fit, and returns the frame and
// the buffer to pass to the next call. The frame's payload aliases that
// buffer, so it is valid only until the buffer is reused. Envelope
// violations are ErrFrame, refused before the payload is read; transport
// errors pass through.
func ReadFrameInto(r io.Reader, buf []byte) (Frame, []byte, error) {
	buf, err := crcframe.ReadInto(r, buf, maxBody)
	if err != nil {
		return Frame{}, buf, err
	}
	f, err := parseBody(buf[crcframe.HdrLen:])
	return f, buf, err
}

// --- pooled frame buffers ----------------------------------------------------
//
// Every frame the server sends, and every data frame it receives, lives in
// a frameBuf: HdrLen bytes reserved for the header, then the payload, built
// in place. A buffer moves from the pool to whoever fills it (the chunk
// pump, a control sender, the connection reader), then to the writer, whose
// release returns it to the pool once the bytes are on the socket (or the
// connection is dead) — or, for a received write-data frame, to the write
// loop, which returns it once the bytes are applied. The
// gateway.stream.frame_bufs gauge counts buffers out of the pool, so a leak
// on any exit path shows.

// frameBuf is one pooled frame buffer.
type frameBuf struct{ b []byte }

var frameBufs = sync.Pool{New: func() any { return new(frameBuf) }}

// newFrameBuf takes a buffer from the pool with the header reserved and
// room for at least size payload bytes.
func newFrameBuf(size int) *frameBuf {
	fb := frameBufs.Get().(*frameBuf)
	if cap(fb.b) < HdrLen+size {
		fb.b = make([]byte, HdrLen, HdrLen+size)
	}
	fb.b = fb.b[:HdrLen]
	obsFrameBufs.Inc()
	return fb
}

// free returns fb to the pool; the caller must not touch it again.
func (fb *frameBuf) free() {
	obsFrameBufs.Dec()
	frameBufs.Put(fb)
}

// CreditPayload encodes a flow-control grant of n frames.
func CreditPayload(n uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], n)
	return b[:]
}

// DecodeCredit parses a flow-control grant. A malformed payload, or a
// grant of zero or more than MaxWindow frames, is ErrFrame.
func DecodeCredit(p []byte) (uint32, error) {
	if len(p) != 4 {
		return 0, fmt.Errorf("%w: credit payload %d bytes", ErrFrame, len(p))
	}
	n := binary.LittleEndian.Uint32(p)
	if n == 0 || n > MaxWindow {
		return 0, fmt.Errorf("%w: credit grant %d", ErrFrame, n)
	}
	return n, nil
}
