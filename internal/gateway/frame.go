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
	"hash/crc32"
	"io"
	"slices"
	"sync"
)

// Proto is the streaming protocol version exchanged in Hello frames.
// Version 3 carries control messages as one gob stream per connection
// direction instead of a self-contained gob payload per frame.
const Proto = 3

// Frame kinds.
type Kind uint8

const (
	// KindHello opens a connection: client proposes chunk/window limits,
	// server answers with the negotiated (clamped) values.
	KindHello Kind = 1
	// KindReq carries one Req on a fresh stream (see MsgEncoder).
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
	// HdrLen is the fixed frame header size.
	HdrLen = 16
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
)

// Frame is one decoded protocol frame.
//
// The wire layout is a 16-byte header followed by the payload:
//
//	0:4   payload length (uint32 LE)
//	4:8   CRC-32 (IEEE) over bytes [8, 16+len) (uint32 LE)
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
var ErrFrame = fmt.Errorf("gateway: bad frame")

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
	binary.LittleEndian.PutUint32(b[0:], uint32(n))
	b[8], b[9], b[10], b[11] = uint8(k), flags, 0, 0
	binary.LittleEndian.PutUint32(b[12:], stream)
	binary.LittleEndian.PutUint32(b[4:], crc32.ChecksumIEEE(b[8:]))
	return nil
}

// EncodeFrame returns f's wire encoding.
func EncodeFrame(f *Frame) ([]byte, error) {
	return AppendFrame(make([]byte, 0, HdrLen+len(f.Payload)), f)
}

// validKind reports whether k is a defined frame kind.
func validKind(k Kind) bool { return k >= KindHello && k <= KindCredit }

// DecodeFrame parses one frame from the front of data, returning the frame
// and the bytes consumed. The returned payload aliases data. Torn,
// truncated, or bit-flipped input fails the CRC or the structural checks —
// it never yields a frame that silently misparses.
func DecodeFrame(data []byte) (*Frame, int, error) {
	f, n, err := decodeFrame(data)
	if err != nil {
		return nil, 0, err
	}
	return &f, n, nil
}

// decodeFrame is DecodeFrame returning the frame by value, so the hot read
// loops decode without allocating.
func decodeFrame(data []byte) (Frame, int, error) {
	if len(data) < HdrLen {
		return Frame{}, 0, fmt.Errorf("%w: %d bytes hold no header", ErrFrame, len(data))
	}
	n := binary.LittleEndian.Uint32(data)
	if n > MaxPayload {
		return Frame{}, 0, fmt.Errorf("%w: payload length %d exceeds limit %d", ErrFrame, n, MaxPayload)
	}
	total := HdrLen + int(n)
	if len(data) < total {
		return Frame{}, 0, fmt.Errorf("%w: payload truncated (%d of %d bytes)", ErrFrame, len(data)-HdrLen, n)
	}
	if binary.LittleEndian.Uint32(data[4:]) != crc32.ChecksumIEEE(data[8:total]) {
		return Frame{}, 0, fmt.Errorf("%w: frame fails its CRC", ErrFrame)
	}
	k := Kind(data[8])
	if !validKind(k) {
		return Frame{}, 0, fmt.Errorf("%w: unknown kind %d", ErrFrame, data[8])
	}
	if data[10] != 0 || data[11] != 0 {
		return Frame{}, 0, fmt.Errorf("%w: reserved header bytes set", ErrFrame)
	}
	return Frame{
		Kind:    k,
		Flags:   data[9],
		Stream:  binary.LittleEndian.Uint32(data[12:]),
		Payload: data[HdrLen:total],
	}, total, nil
}

// ReadFrame reads one frame from r into a fresh buffer (callers may retain
// the payload). Envelope violations are ErrFrame; transport errors pass
// through.
func ReadFrame(r io.Reader) (*Frame, error) {
	f, _, err := ReadFrameInto(r, nil)
	if err != nil {
		return nil, err
	}
	return &f, nil
}

// ReadFrameInto reads one frame from r into buf, reusing its capacity and
// growing it only when the frame does not fit, and returns the frame and
// the buffer to pass to the next call. The frame's payload aliases that
// buffer, so it is valid only until the buffer is reused. Envelope
// violations are ErrFrame, refused before the payload is read; transport
// errors pass through.
func ReadFrameInto(r io.Reader, buf []byte) (Frame, []byte, error) {
	// Reslicing within capacity, not appending zeros: the reads below
	// overwrite every byte.
	buf = slices.Grow(buf[:0], HdrLen)[:HdrLen]
	if _, err := io.ReadFull(r, buf); err != nil {
		return Frame{}, buf, err
	}
	n := binary.LittleEndian.Uint32(buf)
	if n > MaxPayload {
		return Frame{}, buf, fmt.Errorf("%w: payload length %d exceeds limit %d", ErrFrame, n, MaxPayload)
	}
	buf = slices.Grow(buf, int(n))[:HdrLen+int(n)]
	if _, err := io.ReadFull(r, buf[HdrLen:]); err != nil {
		return Frame{}, buf, err
	}
	f, _, err := decodeFrame(buf)
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

// creditPayload encodes a credit grant.
func creditPayload(n uint32) []byte {
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
