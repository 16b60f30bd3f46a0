package core

import (
	"encoding/binary"
	"fmt"
	"io"

	"postlob/internal/adt"
	"postlob/internal/catalog"
	"postlob/internal/heap"
	"postlob/internal/txn"
)

// RawExtent is one stored — possibly compressed — piece of a large object,
// as shipped to remote clients. §3's network argument: "whenever possible,
// only compressed large objects should be shipped over the network — the
// system should support just-in-time uncompression"; the original ADT
// proposal could only convert on the server. ReadRaw returns the stored
// envelopes untouched so the client does the output conversion itself,
// paying decompression CPU at the edge and transfer cost only for the
// compressed bytes.
type RawExtent struct {
	// LogStart is the first logical byte the extent contributes.
	LogStart int64
	// Skip is how many bytes of the decoded envelope to discard first.
	Skip int
	// Take is how many decoded bytes (after Skip) are valid.
	Take int
	// Encoded is the stored envelope (see compress.Encode): a method tag
	// plus compressed or raw bytes.
	Encoded []byte
}

// ReadRaw returns the stored extents covering [off, off+n) of a chunked
// large object, without decompressing them. Logical bytes not covered by
// any extent (sparse regions) read as zeros; the caller assembles the range
// by decoding each extent into place over a zero buffer.
func (s *Store) ReadRaw(tx *txn.Txn, ref adt.ObjectRef, off, n int64) ([]RawExtent, error) {
	return s.readRaw(tx, liveSnap(tx), ref, off, n)
}

// ReadRawAsOf is ReadRaw against a historical snapshot: no transaction, no
// XID allocation. Replicas serve remote raw reads through this path — an
// as-of handle has no transaction to hang visibility on.
func (s *Store) ReadRawAsOf(ts txn.TS, ref adt.ObjectRef, off, n int64) ([]RawExtent, error) {
	return s.readRaw(nil, txn.SnapshotAt(ts), ref, off, n)
}

func (s *Store) readRaw(tx *txn.Txn, snap txn.Snapshot, ref adt.ObjectRef, off, n int64) ([]RawExtent, error) {
	if off < 0 || n < 0 {
		return nil, ErrBadSeek
	}
	meta, err := s.cat.Object(catalog.OID(ref.OID))
	if err != nil {
		return nil, err
	}
	switch meta.Kind {
	case adt.KindFChunk:
		return s.readRawFChunk(tx, snap, ref, meta, off, n)
	case adt.KindVSegment:
		return s.readRawVSegment(tx, snap, ref, meta, off, n)
	default:
		return nil, fmt.Errorf("core: ReadRaw unsupported for %v objects", meta.Kind)
	}
}

func (s *Store) readRawFChunk(tx *txn.Txn, snap txn.Snapshot, ref adt.ObjectRef, meta *catalog.LargeObjectMeta, off, n int64) ([]RawExtent, error) {
	obj, err := s.openFChunk(tx, snap, ref, meta)
	if err != nil {
		return nil, err
	}
	fo := obj.(*fchunkObject)
	defer fo.Close()

	end := off + n
	if end > fo.size {
		end = fo.size
	}
	if off >= end {
		return nil, nil
	}
	cs := fo.chunkSize()
	var out []RawExtent
	// A chunk with no visible version is sparse (zeros) and yields nothing;
	// each stored envelope is copied once, straight from its page.
	for seq := off / cs; seq*cs < end; seq++ {
		chunkStart := seq * cs
		_, err := fo.visit(uint64(seq), func(payload []byte) error {
			rawLen := int64(binary.LittleEndian.Uint32(payload[4:]))
			lo, hi := max(chunkStart, off), min(chunkStart+rawLen, end)
			if lo < hi {
				out = append(out, RawExtent{
					LogStart: lo,
					Skip:     int(lo - chunkStart),
					Take:     int(hi - lo),
					Encoded:  append([]byte(nil), payload[chunkHdr:]...),
				})
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (s *Store) readRawVSegment(tx *txn.Txn, snap txn.Snapshot, ref adt.ObjectRef, meta *catalog.LargeObjectMeta, off, n int64) ([]RawExtent, error) {
	obj, err := s.openVSegment(tx, snap, ref, meta)
	if err != nil {
		return nil, err
	}
	vo := obj.(*vsegmentObject)
	defer vo.Close()

	end := off + n
	if end > vo.size {
		end = vo.size
	}
	if off >= end {
		return nil, nil
	}
	var out []RawExtent
	err = vo.visibleSegments(coverLow(off), end-1, func(rec segRecord, tid heap.TID) (bool, error) {
		lo, hi := rec.logStart, rec.end()
		if lo < off {
			lo = off
		}
		if hi > end {
			hi = end
		}
		if lo >= hi {
			return true, nil
		}
		stored := make([]byte, rec.storeLen)
		if _, err := vo.bytes.Seek(rec.storePtr, io.SeekStart); err != nil {
			return false, err
		}
		if _, err := io.ReadFull(vo.bytes, stored); err != nil {
			return false, err
		}
		out = append(out, RawExtent{
			LogStart: lo,
			Skip:     int(rec.skip) + int(lo-rec.logStart),
			Take:     int(hi - lo),
			Encoded:  stored,
		})
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
