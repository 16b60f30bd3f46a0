package wal

import (
	"encoding/binary"
	"fmt"

	"postlob/internal/crcframe"
	"postlob/internal/page"
	"postlob/internal/storage"
)

// Type discriminates write-ahead log records.
type Type uint8

// Record types. PageImage carries a full physical page — redo is "write these
// bytes back", which is idempotent and needs no per-page LSN on the device
// image. Commit/Abort record transaction outcomes so recovery can rebuild the
// commit log for transactions that finished after the last pg_log save.
// Checkpoint marks a fuzzy checkpoint and carries its redo point. Unlink
// records a relation drop so replay never resurrects storage that was
// deliberately removed.
const (
	TypePageImage  Type = 1
	TypeCommit     Type = 2
	TypeAbort      Type = 3
	TypeCheckpoint Type = 4
	TypeUnlink     Type = 5
)

// wireHoleImage is the second wire form of a page image: the same fields as
// TypePageImage, then the hole's offset and length (u16 each), then the page
// bytes before and after the hole. The hole is a range of the page known to
// be zero (a slotted page's free space, zeroed by the logger), so a vacuumed
// chunk page costs some fifty bytes of log instead of 8 KB. It is a wire
// detail only: both forms decode to a TypePageImage record with a full-size
// Image, and logs written before the form existed decode as ever.
const wireHoleImage Type = 6

func (t Type) String() string {
	switch t {
	case TypePageImage:
		return "page-image"
	case TypeCommit:
		return "commit"
	case TypeAbort:
		return "abort"
	case TypeCheckpoint:
		return "checkpoint"
	case TypeUnlink:
		return "unlink"
	case wireHoleImage:
		return "page-image(hole)"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Record is one decoded log record. Which fields are meaningful depends on
// Type: page images use XID/SM/Rel/Blk/Image and the hole bounds, commits use
// XID/TS, aborts use XID, unlinks use SM/Rel. Checkpoints use Redo plus the
// version metadata triple (XID = next XID to issue, TS = latest commit
// timestamp, Oldest = global xmin horizon at the checkpoint), so redo
// recovery can restart version numbering past everything the lost epoch
// might have stamped even when the commit-log file lagged the write-ahead
// log.
type Record struct {
	Type Type
	// LSN is the record's start position; End is the position one past its
	// last byte — the LSN to Flush through for this record to be durable.
	// Both are filled by the scanner, not the encoder.
	LSN LSN
	End LSN

	XID uint32
	TS  int64
	SM  storage.ID
	Rel storage.RelName
	Blk storage.BlockNum
	// Image is always a whole page. Image[HoleOff:HoleOff+HoleLen] is the
	// part the log does not carry: the encoder skips it without looking (the
	// caller vouches it is zero) and the decoder rebuilds it as zeros.
	Image   []byte
	HoleOff int
	HoleLen int
	Redo    LSN
	Oldest  uint32
}

// Record wire format: one crcframe envelope — body length u32, CRC-32 (IEEE)
// u32 over the body — around the body: one type byte and the type-specific
// payload. A zero length terminates the segment (fresh segment bytes are
// zero, so the scanner needs no explicit end marker). All integers are
// little-endian.
const recHdrLen = crcframe.HdrLen

// maxRelLen bounds encoded relation names; longer names indicate corruption
// long before they indicate real relations.
const maxRelLen = 1 << 12

// maxRecBody bounds a record body: a plain page image under the longest
// relation name is the largest record the encoder writes.
const maxRecBody = 1 + 11 + maxRelLen + page.Size

// recordLen validates r's type-specific fields and returns its encoded
// length, header included, so a caller can reserve room (or rotate the
// segment) before a byte is written and appendRecord cannot fail half way.
func recordLen(r *Record) (int, error) {
	if len(r.Rel) > maxRelLen {
		return 0, fmt.Errorf("wal: relation name %d bytes long", len(r.Rel))
	}
	n := recHdrLen + 1
	switch r.Type {
	case TypePageImage:
		if len(r.Image) != page.Size {
			return 0, fmt.Errorf("wal: page image is %d bytes, want %d", len(r.Image), page.Size)
		}
		if r.HoleOff < 0 || r.HoleLen < 0 || r.HoleOff+r.HoleLen > page.Size {
			return 0, fmt.Errorf("wal: page image hole [%d,+%d) outside the page", r.HoleOff, r.HoleLen)
		}
		n += 11 + len(r.Rel) + page.Size
		if r.HoleLen > 0 {
			n += 4 - r.HoleLen
		}
	case TypeCommit:
		n += 12
	case TypeAbort:
		n += 4
	case TypeCheckpoint:
		n += 24
	case TypeUnlink:
		n += 3 + len(r.Rel)
	default:
		return 0, fmt.Errorf("wal: cannot encode record type %v", r.Type)
	}
	return n, nil
}

// appendRecord encodes r (header included) onto dst and returns the extended
// slice; dst is returned unchanged on error. Only the type-specific fields
// are consulted; LSN/End are assigned by the log at append time. With
// capacity for recordLen(r) more bytes in dst it allocates nothing.
func appendRecord(dst []byte, r *Record) ([]byte, error) {
	if _, err := recordLen(r); err != nil {
		return dst, err
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // header, patched below
	switch r.Type {
	case TypePageImage:
		if r.HoleLen > 0 {
			dst = append(dst, byte(wireHoleImage))
		} else {
			dst = append(dst, byte(TypePageImage))
		}
		dst = binary.LittleEndian.AppendUint32(dst, r.XID)
		dst = append(dst, byte(r.SM))
		dst = binary.LittleEndian.AppendUint32(dst, r.Blk)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.Rel)))
		dst = append(dst, r.Rel...)
		if r.HoleLen > 0 {
			dst = binary.LittleEndian.AppendUint16(dst, uint16(r.HoleOff))
			dst = binary.LittleEndian.AppendUint16(dst, uint16(r.HoleLen))
			dst = append(dst, r.Image[:r.HoleOff]...)
			dst = append(dst, r.Image[r.HoleOff+r.HoleLen:]...)
		} else {
			dst = append(dst, r.Image...)
		}
	case TypeCommit:
		dst = append(dst, byte(r.Type))
		dst = binary.LittleEndian.AppendUint32(dst, r.XID)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(r.TS))
	case TypeAbort:
		dst = append(dst, byte(r.Type))
		dst = binary.LittleEndian.AppendUint32(dst, r.XID)
	case TypeCheckpoint:
		dst = append(dst, byte(r.Type))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(r.Redo))
		dst = binary.LittleEndian.AppendUint32(dst, r.XID)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(r.TS))
		dst = binary.LittleEndian.AppendUint32(dst, r.Oldest)
	case TypeUnlink:
		dst = append(dst, byte(r.Type))
		dst = append(dst, byte(r.SM))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.Rel)))
		dst = append(dst, r.Rel...)
	}
	crcframe.Seal(dst[start:])
	return dst, nil
}

// decodeBody decodes a record body whose CRC has already been verified.
// Returns an error for malformed payloads — a CRC collision on garbage, or an
// encoder bug — never panics, whatever the bytes.
func decodeBody(body []byte) (*Record, error) {
	if len(body) < 1 {
		return nil, fmt.Errorf("wal: empty record body")
	}
	r := &Record{Type: Type(body[0])}
	p := body[1:]
	short := fmt.Errorf("wal: truncated %v record body", r.Type)
	switch r.Type {
	case TypePageImage, wireHoleImage:
		if len(p) < 11 {
			return nil, short
		}
		r.XID = binary.LittleEndian.Uint32(p)
		r.SM = storage.ID(p[4])
		r.Blk = binary.LittleEndian.Uint32(p[5:])
		relLen := int(binary.LittleEndian.Uint16(p[9:]))
		p = p[11:]
		if relLen > maxRelLen || len(p) < relLen {
			return nil, short
		}
		r.Rel = storage.RelName(p[:relLen])
		p = p[relLen:]
		if r.Type == TypePageImage {
			if len(p) != page.Size {
				return nil, short
			}
			r.Image = p
			break
		}
		// The hole form: rebuild the whole page, zeros where the hole was. An
		// empty hole must have been written in the plain form, so that every
		// record has exactly one encoding.
		r.Type = TypePageImage
		if len(p) < 4 {
			return nil, short
		}
		r.HoleOff = int(binary.LittleEndian.Uint16(p))
		r.HoleLen = int(binary.LittleEndian.Uint16(p[2:]))
		p = p[4:]
		if r.HoleLen == 0 || r.HoleOff+r.HoleLen > page.Size || len(p) != page.Size-r.HoleLen {
			return nil, short
		}
		r.Image = make([]byte, page.Size)
		copy(r.Image, p[:r.HoleOff])
		copy(r.Image[r.HoleOff+r.HoleLen:], p[r.HoleOff:])
	case TypeCommit:
		if len(p) != 12 {
			return nil, short
		}
		r.XID = binary.LittleEndian.Uint32(p)
		r.TS = int64(binary.LittleEndian.Uint64(p[4:]))
	case TypeAbort:
		if len(p) != 4 {
			return nil, short
		}
		r.XID = binary.LittleEndian.Uint32(p)
	case TypeCheckpoint:
		// 8-byte bodies are the legacy format without version metadata;
		// their counters decode as zero (a no-op at recovery).
		if len(p) != 8 && len(p) != 24 {
			return nil, short
		}
		r.Redo = LSN(binary.LittleEndian.Uint64(p))
		if len(p) == 24 {
			r.XID = binary.LittleEndian.Uint32(p[8:])
			r.TS = int64(binary.LittleEndian.Uint64(p[12:]))
			r.Oldest = binary.LittleEndian.Uint32(p[20:])
		}
	case TypeUnlink:
		if len(p) < 3 {
			return nil, short
		}
		r.SM = storage.ID(p[0])
		relLen := int(binary.LittleEndian.Uint16(p[1:]))
		p = p[3:]
		if relLen > maxRelLen || len(p) != relLen {
			return nil, short
		}
		r.Rel = storage.RelName(p)
	default:
		return nil, fmt.Errorf("wal: unknown record type %d", uint8(r.Type))
	}
	return r, nil
}

// scan decodes the records framed back to back in b from offset off, b[0]
// being at LSN base, and calls fn for each with LSN/End assigned. It stops
// where b ends or its zero padding starts and returns that offset, or the
// offset of a record that does not decode, with the error. An fn error
// aborts the scan and is returned as is; scan never panics, whatever the
// bytes.
func scan(b []byte, off int, base LSN, fn func(*Record) error) (int, error) {
	for len(b)-off >= recHdrLen && binary.LittleEndian.Uint32(b[off:]) != 0 {
		body, n, err := crcframe.Decode(b[off:], maxRecBody)
		var r *Record
		if err == nil {
			r, err = decodeBody(body)
		}
		if err != nil {
			return off, fmt.Errorf("record at offset %d: %v", off, err)
		}
		r.LSN = base + LSN(off)
		r.End = r.LSN + LSN(n)
		if err := fn(r); err != nil {
			return off, err
		}
		off += n
	}
	return off, nil
}
