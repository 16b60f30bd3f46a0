package gateway

import (
	"encoding/binary"
	"fmt"

	"postlob/internal/adt"
	"postlob/internal/core"
	"postlob/internal/txn"
)

// Op identifies a v2 request. Control ops complete with one Resp; read ops
// stream Data or Extents frames before their Resp; a write op consumes the
// client's Data frames and then responds.
type Op uint8

const (
	OpBegin Op = iota + 1
	OpCommit
	OpAbort
	OpNow
	OpExec
	OpOpen
	OpClose
	OpSize
	// OpRead streams the object range as server-decoded logical bytes in
	// KindData frames (the pre-§3 behaviour, and the HTTP GET core).
	OpRead
	// OpRawRead streams the object range as stored compressed extents in
	// KindExtents frames; the client decodes just in time (§3).
	OpRawRead
	// OpWrite announces a streaming write: the client follows with
	// KindData frames, FIN-terminated; the server applies them chunk by
	// chunk at ascending offsets.
	OpWrite
)

func (o Op) String() string {
	switch o {
	case OpBegin:
		return "begin"
	case OpCommit:
		return "commit"
	case OpAbort:
		return "abort"
	case OpNow:
		return "now"
	case OpExec:
		return "exec"
	case OpOpen:
		return "open"
	case OpClose:
		return "close"
	case OpSize:
		return "size"
	case OpRead:
		return "read"
	case OpRawRead:
		return "rawread"
	case OpWrite:
		return "write"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Hello is the connection-opening negotiation, the first message of each
// direction's gob stream (crcframe.MsgEncoder), in a KindHello frame. The
// server clamps the client's proposal to its own configuration and answers
// with the values both sides then obey.
type Hello struct {
	Proto  int
	Chunk  int // chunk granularity in bytes
	Window int // per-stream credit window in frames
}

// Req is one v2 request, a message of the client's gob stream in a KindReq
// frame. Which fields are meaningful depends on Op; gob omits the
// zero-valued rest.
type Req struct {
	Op     Op
	Query  string        // OpExec
	Ref    adt.ObjectRef // OpOpen
	AsOf   txn.TS        // nonzero with OpOpen: historical snapshot handle
	Handle int32
	Offset int64
	N      int64
}

// Resp completes a request, a message of the server's gob stream in a
// KindResp frame.
type Resp struct {
	Err string

	// OpExec results.
	Columns   []string
	Rows      [][]adt.Value
	UsedIndex string

	// Object operations.
	Handle int32
	Size   int64
	N      int64

	// OpBegin / OpCommit / OpNow.
	TS txn.TS
}

// --- extent codec ------------------------------------------------------------
//
// Raw streaming reads move stored extents on the hot path, so they skip gob
// for a compact fixed-layout encoding: per extent
//
//	logStart u64 | skip u32 | take u32 | encLen u32 | enc bytes
//
// repeated to the end of the payload. The frame CRC already covers
// integrity; DecodeExtents only bounds-checks structure.

const extentHdr = 8 + 4 + 4 + 4

// appendExtent appends one extent's encoding to dst.
func appendExtent(dst []byte, e *core.RawExtent) []byte {
	var hdr [extentHdr]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(e.LogStart))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(e.Skip))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(e.Take))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(len(e.Encoded)))
	dst = append(dst, hdr[:]...)
	return append(dst, e.Encoded...)
}

// extentWireLen is the encoded size of e.
func extentWireLen(e *core.RawExtent) int { return extentHdr + len(e.Encoded) }

// DecodeExtents parses a KindExtents payload, appending its extents to dst
// (pass the previous result back, truncated, to decode without
// allocating). Each extent's Encoded aliases p. Malformed input errors; it
// never panics or over-reads.
func DecodeExtents(dst []core.RawExtent, p []byte) ([]core.RawExtent, error) {
	for len(p) > 0 {
		if len(p) < extentHdr {
			return nil, fmt.Errorf("%w: extent header truncated (%d bytes)", ErrFrame, len(p))
		}
		logStart := binary.LittleEndian.Uint64(p)
		skip := binary.LittleEndian.Uint32(p[8:])
		take := binary.LittleEndian.Uint32(p[12:])
		encLen := binary.LittleEndian.Uint32(p[16:])
		p = p[extentHdr:]
		if logStart > 1<<62 || skip > MaxPayload || take > MaxPayload {
			return nil, fmt.Errorf("%w: extent bounds (start %d skip %d take %d)", ErrFrame, logStart, skip, take)
		}
		if uint64(encLen) > uint64(len(p)) {
			return nil, fmt.Errorf("%w: extent body %d bytes, %d remain", ErrFrame, encLen, len(p))
		}
		dst = append(dst, core.RawExtent{
			LogStart: int64(logStart),
			Skip:     int(skip),
			Take:     int(take),
			Encoded:  p[:encLen:encLen],
		})
		p = p[encLen:]
	}
	return dst, nil
}
