// Package crcframe is the one checksummed envelope the stack frames bytes
// in: write-ahead log records on disk, the gateway's stream protocol and
// WAL replication on the wire. A frame is
//
//	0:4  body length n (uint32 LE), never zero
//	4:8  CRC-32 (IEEE) over the body (uint32 LE)
//	8:   the body, n bytes; body[0] is the kind
//
// A torn or bit-flipped frame fails here, before a caller interprets any
// field of its body. Each caller passes the largest body it accepts, so a
// corrupt length field is refused before anything is allocated for it.
package crcframe

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// HdrLen is the envelope header size: the body length and its CRC.
const HdrLen = 8

// ErrFrame reports a frame that failed envelope or structural validation.
// Receivers treat it as a torn connection (or, in a log, as damage).
var ErrFrame = errors.New("bad frame")

// Seal writes the header of the frame in b, whose body fills b past the
// HdrLen bytes reserved in front of it. It allocates nothing, so a body
// built in place ships without another copy.
func Seal(b []byte) {
	binary.LittleEndian.PutUint32(b, uint32(len(b)-HdrLen))
	binary.LittleEndian.PutUint32(b[4:], crc32.ChecksumIEEE(b[HdrLen:]))
}

// Decode parses the frame at the front of data and returns its body, which
// aliases data, and the number of bytes the frame occupies. A body over max
// bytes, an empty or truncated one, or one that fails its CRC is ErrFrame.
func Decode(data []byte, max int) (body []byte, n int, err error) {
	if len(data) < HdrLen {
		return nil, 0, fmt.Errorf("%w: %d bytes hold no header", ErrFrame, len(data))
	}
	bl, err := bodyLen(data, max)
	if err != nil {
		return nil, 0, err
	}
	if len(data)-HdrLen < bl {
		return nil, 0, fmt.Errorf("%w: body truncated (%d of %d bytes)", ErrFrame, len(data)-HdrLen, bl)
	}
	body = data[HdrLen : HdrLen+bl]
	if binary.LittleEndian.Uint32(data[4:]) != crc32.ChecksumIEEE(body) {
		return nil, 0, fmt.Errorf("%w: body fails its CRC", ErrFrame)
	}
	return body, HdrLen + bl, nil
}

// ReadInto reads one frame from r into buf, reusing its capacity and
// growing it only when the frame does not fit, in two reads. It returns the
// buffer holding the whole frame, header included, so the body is
// frame[HdrLen:]; on error it returns the buffer too, for the next call. An
// envelope violation is ErrFrame, refused before the body is read;
// transport errors pass through.
func ReadInto(r io.Reader, buf []byte, max int) (frame []byte, err error) {
	// Reslicing within capacity, not appending zeros: the reads below
	// overwrite every byte.
	buf = slices.Grow(buf[:0], HdrLen)[:HdrLen]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, err
	}
	bl, err := bodyLen(buf, max)
	if err != nil {
		return buf, err
	}
	buf = slices.Grow(buf, bl)[:HdrLen+bl]
	if _, err := io.ReadFull(r, buf[HdrLen:]); err != nil {
		return buf, err
	}
	_, _, err = Decode(buf, max)
	return buf, err
}

// bodyLen returns the body length the header at the front of h declares.
func bodyLen(h []byte, max int) (int, error) {
	n := binary.LittleEndian.Uint32(h)
	if n == 0 || uint64(n) > uint64(max) {
		return 0, fmt.Errorf("%w: body length %d outside (0, %d]", ErrFrame, n, max)
	}
	return int(n), nil
}
