package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"postlob/internal/adt"
	"postlob/internal/catalog"
	"postlob/internal/compress"
	"postlob/internal/heap"
	"postlob/internal/txn"
)

// RawExtent is one stored — possibly compressed — piece of a large object,
// as shipped to remote clients. §3's network argument: "whenever possible,
// only compressed large objects should be shipped over the network — the
// system should support just-in-time uncompression"; the original ADT
// proposal could only convert on the server. VisitRaw hands out the stored
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

// VisitRaw calls fn, in ascending logical order, on each stored extent
// covering [off, off+n) of a large object, without decompressing it.
// Logical bytes not covered by any extent (sparse regions) read as zeros;
// the caller assembles the range by decoding each extent into place over
// zeros. Every kind answers, so one read path serves them all: f-chunk and
// v-segment objects show their stored envelopes, and u-file and p-file
// objects, which store plain bytes, show the range as one raw envelope n
// bytes long (so callers keep n to a chunk).
//
// The extent, and the Encoded bytes it names, are valid only during the
// call: for f-chunk objects Encoded aliases the pinned heap page, read
// under its shared content latch (the heap.ViewSnap contract). fn copies
// out whatever it keeps, must not block, and must not call back into the
// store. An error from fn stops the visit and is returned.
func (s *Store) VisitRaw(tx *txn.Txn, ref adt.ObjectRef, off, n int64, fn func(*RawExtent) error) error {
	return s.visitRaw(tx, liveSnap(tx), ref, off, n, fn)
}

// VisitRawAsOf is VisitRaw against a historical snapshot: no transaction,
// no XID allocation. Replicas serve remote raw reads through this path — an
// as-of handle has no transaction to hang visibility on. File kinds have no
// history and return ErrNoTravel, as OpenAsOf does.
func (s *Store) VisitRawAsOf(ts txn.TS, ref adt.ObjectRef, off, n int64, fn func(*RawExtent) error) error {
	return s.visitRaw(nil, txn.SnapshotAt(ts), ref, off, n, fn)
}

func (s *Store) visitRaw(tx *txn.Txn, snap txn.Snapshot, ref adt.ObjectRef, off, n int64, fn func(*RawExtent) error) error {
	if off < 0 || n < 0 {
		return ErrBadSeek
	}
	meta, err := s.cat.Object(catalog.OID(ref.OID))
	if err != nil {
		return err
	}
	switch meta.Kind {
	case adt.KindFChunk:
		return s.visitRawFChunk(tx, snap, ref, meta, off, n, fn)
	case adt.KindVSegment:
		return s.visitRawVSegment(tx, snap, ref, meta, off, n, fn)
	case adt.KindUFile, adt.KindPFile:
		if snap.Historical() {
			return fmt.Errorf("%w: %v", ErrNoTravel, meta.Kind)
		}
		return s.visitRawFile(ref, meta, off, n, fn)
	default:
		return fmt.Errorf("core: unknown storage kind %v", meta.Kind)
	}
}

// visitRawFile reads [off, min(off+n, size)) of a u-file or p-file through
// a fileObject — its counters and modelled I/O cost — into the body of one
// raw envelope, borrowed from the f-chunk buffer pool.
func (s *Store) visitRawFile(ref adt.ObjectRef, meta *catalog.LargeObjectMeta, off, n int64, fn func(*RawExtent) error) error {
	obj, err := s.openFileObject(ref, meta)
	if err != nil {
		return err
	}
	defer obj.Close()
	size, err := obj.Size()
	if err != nil {
		return err
	}
	end := min(off+n, size)
	if off >= end {
		return nil
	}
	if _, err := obj.Seek(off, io.SeekStart); err != nil {
		return err
	}
	bufs := chunkBufs.Get().(*chunkBuf)
	defer chunkBufs.Put(bufs)
	env, body := compress.RawEnvelope(bufs.enc, int(end-off))
	bufs.enc = env
	// A file that shrank under the read yields what is left of the range.
	got, err := io.ReadFull(obj, body)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return err
	}
	e := RawExtent{LogStart: off, Take: got, Encoded: env[:1+got]}
	return fn(&e)
}

func (s *Store) visitRawFChunk(tx *txn.Txn, snap txn.Snapshot, ref adt.ObjectRef, meta *catalog.LargeObjectMeta, off, n int64, fn func(*RawExtent) error) error {
	obj, err := s.openFChunk(tx, snap, ref, meta)
	if err != nil {
		return err
	}
	fo := obj.(*fchunkObject)
	defer fo.Close()

	end := min(off+n, fo.size)
	if off >= end {
		return nil
	}
	cs := fo.chunkSize()
	fo.span(off/cs, (end-1)/cs)
	defer fo.endSpan()
	var e RawExtent
	// A chunk with no visible version is sparse (zeros) and yields nothing;
	// every other chunk's envelope is shown to fn in place on its page.
	for seq := off / cs; seq*cs < end; seq++ {
		chunkStart := seq * cs
		_, err := fo.visit(uint64(seq), func(payload []byte) error {
			rawLen := int64(binary.LittleEndian.Uint32(payload[4:]))
			lo, hi := max(chunkStart, off), min(chunkStart+rawLen, end)
			if lo >= hi {
				return nil
			}
			e = RawExtent{LogStart: lo, Skip: int(lo - chunkStart), Take: int(hi - lo), Encoded: payload[chunkHdr:]}
			return fn(&e)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) visitRawVSegment(tx *txn.Txn, snap txn.Snapshot, ref adt.ObjectRef, meta *catalog.LargeObjectMeta, off, n int64, fn func(*RawExtent) error) error {
	obj, err := s.openVSegment(tx, snap, ref, meta)
	if err != nil {
		return err
	}
	vo := obj.(*vsegmentObject)
	defer vo.Close()

	end := min(off+n, vo.size)
	if off >= end {
		return nil
	}
	// Segments live in the object's byte store, not on one page: each is
	// read into one buffer, reused from segment to segment.
	var stored []byte
	var e RawExtent
	return vo.visibleSegments(coverLow(off), end-1, func(rec segRecord, tid heap.TID) (bool, error) {
		lo, hi := max(rec.logStart, off), min(rec.end(), end)
		if lo >= hi {
			return true, nil
		}
		stored = slices.Grow(stored[:0], int(rec.storeLen))[:rec.storeLen]
		if _, err := vo.bytes.Seek(rec.storePtr, io.SeekStart); err != nil {
			return false, err
		}
		if _, err := io.ReadFull(vo.bytes, stored); err != nil {
			return false, err
		}
		e = RawExtent{LogStart: lo, Skip: int(rec.skip) + int(lo-rec.logStart), Take: int(hi - lo), Encoded: stored}
		return true, fn(&e)
	})
}
