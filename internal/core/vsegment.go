package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"postlob/internal/adt"
	"postlob/internal/btree"
	"postlob/internal/catalog"
	"postlob/internal/compress"
	"postlob/internal/heap"
	"postlob/internal/txn"
)

// The v-segment implementation (§6.4): the object is a collection of
// variable-length segments. User writes are compressed one segment at a
// time, concatenated end-to-end in an underlying uncompressed f-chunk byte
// store, and located through a segment index
//
//	segment_ndx (locn, compressed_len, byte_pointer)
//
// kept in its own no-overwrite class with a B-tree on locn. The unit of
// compression is the segment rather than the 8 KB block, so any reduction
// the codec achieves is reflected in the stored size; and because both the
// index records and the store are no-overwrite, time travel covers index
// and contents alike.
//
// Overwrites never touch stored bytes: a new segment is appended and the
// index records it shadows are deleted or trimmed (a trimmed record points
// into the same stored segment with a skip offset), keeping visible records
// non-overlapping.

// segMetaKey indexes the object-size metadata record; logical byte offsets
// stay far below it.
const segMetaKey = uint64(1) << 62

// Segment record payload layout (32 bytes):
//
//	0..7   logStart — first logical byte covered
//	8..11  logLen   — logical bytes covered
//	12..19 storePtr — offset of the stored (compressed) segment
//	20..23 storeLen — stored length ("compressed_len")
//	24..27 skip     — bytes to discard after decompression
//	28..31 origLen  — decompressed length of the whole stored segment
const segRecSize = 32

type segRecord struct {
	logStart int64
	logLen   int32
	storePtr int64
	storeLen int32
	skip     int32
	origLen  int32
}

func (r segRecord) end() int64 { return r.logStart + int64(r.logLen) }

func (r segRecord) encode() []byte {
	buf := make([]byte, segRecSize)
	binary.LittleEndian.PutUint64(buf[0:], uint64(r.logStart))
	binary.LittleEndian.PutUint32(buf[8:], uint32(r.logLen))
	binary.LittleEndian.PutUint64(buf[12:], uint64(r.storePtr))
	binary.LittleEndian.PutUint32(buf[20:], uint32(r.storeLen))
	binary.LittleEndian.PutUint32(buf[24:], uint32(r.skip))
	binary.LittleEndian.PutUint32(buf[28:], uint32(r.origLen))
	return buf
}

func decodeSegRecord(buf []byte) (segRecord, error) {
	if len(buf) != segRecSize {
		return segRecord{}, fmt.Errorf("core: segment record is %d bytes", len(buf))
	}
	return segRecord{
		logStart: int64(binary.LittleEndian.Uint64(buf[0:])),
		logLen:   int32(binary.LittleEndian.Uint32(buf[8:])),
		storePtr: int64(binary.LittleEndian.Uint64(buf[12:])),
		storeLen: int32(binary.LittleEndian.Uint32(buf[20:])),
		skip:     int32(binary.LittleEndian.Uint32(buf[24:])),
		origLen:  int32(binary.LittleEndian.Uint32(buf[28:])),
	}, nil
}

type vsegmentObject struct {
	store *Store
	ref   adt.ObjectRef
	meta  *catalog.LargeObjectMeta
	codec compress.Codec

	segRel *heap.Relation
	segIdx *btree.Tree
	bytes  Object // underlying f-chunk byte store

	tx   *txn.Txn
	snap txn.Snapshot

	pos  int64
	size int64

	sizeTID   heap.TID
	sizeDirty bool

	// decode cache for one stored segment
	cachePtr  int64
	cacheData []byte

	// enc is reused from segment to segment to hold each one's encoding.
	enc []byte

	closed bool
}

var _ Object = (*vsegmentObject)(nil)

func (s *Store) createVSegmentStorage(tx *txn.Txn, meta *catalog.LargeObjectMeta) error {
	if tx == nil {
		return fmt.Errorf("core: %v objects require a transaction", meta.Kind)
	}
	segRel, err := heap.Create(s.pool, meta.SM, meta.SegRel)
	if err != nil {
		return err
	}
	segIdx, err := s.btrees.Create(meta.SM, meta.SegIdxRel, s.btreeConfig())
	if err != nil {
		return err
	}
	tid, err := segRel.Insert(tx, encodeMetaPayload(0))
	if err != nil {
		return err
	}
	return segIdx.Insert(segMetaKey, heap.EncodeTID(tid))
}

func (s *Store) dropVSegmentStorage(meta *catalog.LargeObjectMeta) error {
	segRel, err := heap.Open(s.pool, meta.SM, meta.SegRel)
	if err != nil {
		return err
	}
	if err := segRel.Drop(); err != nil {
		return err
	}
	segIdx, err := s.btrees.Open(meta.SM, meta.SegIdxRel, s.btreeConfig())
	if err != nil {
		return err
	}
	return segIdx.Drop()
}

func (s *Store) openVSegment(tx *txn.Txn, snap txn.Snapshot, ref adt.ObjectRef, meta *catalog.LargeObjectMeta) (Object, error) {
	segRel, err := heap.Open(s.pool, meta.SM, meta.SegRel)
	if err != nil {
		return nil, err
	}
	segIdx, err := s.btrees.Open(meta.SM, meta.SegIdxRel, s.btreeConfig())
	if err != nil {
		return nil, err
	}
	storeMeta, err := s.cat.Object(meta.StoreOID)
	if err != nil {
		return nil, err
	}
	inner, err := s.open(tx, snap, adt.ObjectRef{OID: uint64(meta.StoreOID)}, storeMeta)
	if err != nil {
		return nil, err
	}
	codec, _ := compress.Lookup(meta.Codec)
	o := &vsegmentObject{
		store: s, ref: ref, meta: meta, codec: codec,
		segRel: segRel, segIdx: segIdx, bytes: inner,
		tx: tx, snap: snap,
		cachePtr: -1,
	}
	payload, tid, err := o.lookupVisible(segMetaKey)
	if err != nil {
		return nil, err
	}
	if payload == nil {
		return nil, fmt.Errorf("core: object %d has no metadata record", ref.OID)
	}
	o.size = int64(binary.LittleEndian.Uint64(payload[4:]))
	o.sizeTID = tid
	return o, nil
}

// fetch reads the segment record under the handle's snapshot; live and
// historical handles share the path.
func (o *vsegmentObject) fetch(tid heap.TID) ([]byte, error) {
	return o.segRel.FetchSnap(o.snap, tid)
}

// segPayloadMatches guards against heap slots vacuum recycled under stale
// index entries: metadata carries its magic; segment records carry their
// logical start.
func segPayloadMatches(key uint64, payload []byte) bool {
	if key == segMetaKey {
		return len(payload) == metaPayloadSize && binary.LittleEndian.Uint32(payload) == metaMagic
	}
	return len(payload) == segRecSize && binary.LittleEndian.Uint64(payload) == key
}

func isNotVisible(err error) bool {
	return errors.Is(err, heap.ErrNotVisible) || errors.Is(err, heap.ErrNoTuple)
}

func (o *vsegmentObject) lookupVisible(key uint64) ([]byte, heap.TID, error) {
	vals, err := o.segIdx.Lookup(key)
	if err != nil {
		return nil, heap.InvalidTID, err
	}
	for i := len(vals) - 1; i >= 0; i-- {
		tid := heap.DecodeTID(vals[i])
		payload, err := o.fetch(tid)
		if err == nil {
			if !segPayloadMatches(key, payload) {
				o.pruneStale(key, vals[i])
				continue
			}
			return payload, tid, nil
		}
		if errors.Is(err, heap.ErrNoTuple) {
			o.pruneStale(key, vals[i])
			continue
		}
		if !isNotVisible(err) {
			return nil, heap.InvalidTID, err
		}
	}
	return nil, heap.InvalidTID, nil
}

// pruneStale removes a segment-index entry whose target tuple no longer
// exists. As in fchunk, the staleness check re-runs under the tree's writer
// lock so a delayed prune cannot delete an entry that a writer has just
// re-validated by recycling the dead slot for a fresh record of this key.
func (o *vsegmentObject) pruneStale(key, val uint64) {
	if o.snap.Historical() {
		return
	}
	tid := heap.DecodeTID(val)
	_ = o.segIdx.DeleteIf(key, val, func() (bool, error) {
		matched := false
		err := o.segRel.ViewAny(tid, func(payload []byte) { matched = segPayloadMatches(key, payload) })
		if errors.Is(err, heap.ErrNoTuple) {
			return true, nil
		}
		if err != nil {
			return false, err
		}
		return !matched, nil
	})
}

// visibleSegments calls fn for every visible segment record whose logStart
// lies in [lo, hi], in ascending order.
func (o *vsegmentObject) visibleSegments(lo, hi int64, fn func(rec segRecord, tid heap.TID) (bool, error)) error {
	if lo < 0 {
		lo = 0
	}
	type stale struct{ k, v uint64 }
	var prune []stale
	err := o.segIdx.Range(uint64(lo), uint64(hi), func(k, v uint64) (bool, error) {
		tid := heap.DecodeTID(v)
		payload, err := o.fetch(tid)
		if err != nil {
			if errors.Is(err, heap.ErrNoTuple) {
				prune = append(prune, stale{k, v})
				return true, nil
			}
			if isNotVisible(err) {
				return true, nil
			}
			return false, err
		}
		if !segPayloadMatches(k, payload) {
			prune = append(prune, stale{k, v})
			return true, nil
		}
		rec, err := decodeSegRecord(payload)
		if err != nil {
			return false, err
		}
		return fn(rec, tid)
	})
	// Prune after the scan: the B-tree's mutex is not reentrant.
	for _, s := range prune {
		o.pruneStale(s.k, s.v)
	}
	return err
}

// coverLow is the lowest logStart that could cover off: records never span
// more than MaxSegmentSize logical bytes.
func coverLow(off int64) int64 {
	low := off - MaxSegmentSize
	if low < 0 {
		low = 0
	}
	return low
}

// findCover returns the visible segment covering off, if any.
func (o *vsegmentObject) findCover(off int64) (segRecord, bool, error) {
	var found segRecord
	var ok bool
	err := o.visibleSegments(coverLow(off), off, func(rec segRecord, tid heap.TID) (bool, error) {
		if rec.logStart <= off && off < rec.end() {
			found, ok = rec, true
		}
		return true, nil
	})
	return found, ok, err
}

// segmentBytes returns the decompressed contents of a stored segment,
// caching the most recent one.
func (o *vsegmentObject) segmentBytes(rec segRecord) ([]byte, error) {
	if o.cachePtr == rec.storePtr {
		return o.cacheData, nil
	}
	stored := make([]byte, rec.storeLen)
	if _, err := o.bytes.Seek(rec.storePtr, io.SeekStart); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(o.bytes, stored); err != nil {
		return nil, fmt.Errorf("core: segment at %d of object %d: %w", rec.storePtr, o.ref.OID, err)
	}
	if rec.origLen < 0 || rec.origLen > MaxSegmentSize {
		return nil, fmt.Errorf("core: segment at %d: decoded length %d out of range", rec.storePtr, rec.origLen)
	}
	decoded, err := compress.DecodeInto(make([]byte, 0, rec.origLen), stored)
	if err != nil {
		return nil, fmt.Errorf("core: segment at %d of object %d: %w", rec.storePtr, o.ref.OID, err)
	}
	if len(decoded) != int(rec.origLen) {
		return nil, fmt.Errorf("core: segment at %d: decoded %d, want %d", rec.storePtr, len(decoded), rec.origLen)
	}
	// Just-in-time output conversion, charged per decompressed byte.
	compress.Charge(o.store.clock, o.store.cpu, o.codec, len(decoded))
	o.cachePtr = rec.storePtr
	o.cacheData = decoded
	return decoded, nil
}

// Ref implements Object.
func (o *vsegmentObject) Ref() adt.ObjectRef { return o.ref }

// Size implements Object.
func (o *vsegmentObject) Size() (int64, error) {
	if o.closed {
		return 0, ErrClosed
	}
	return o.size, nil
}

// Seek implements io.Seeker.
func (o *vsegmentObject) Seek(offset int64, whence int) (int64, error) {
	if o.closed {
		return 0, ErrClosed
	}
	vsegmentMetrics.seeks.Inc()
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = o.pos
	case io.SeekEnd:
		base = o.size
	default:
		return 0, fmt.Errorf("core: bad whence %d", whence)
	}
	np := base + offset
	if np < 0 {
		return 0, ErrBadSeek
	}
	o.pos = np
	return np, nil
}

// Read implements io.Reader at the seek position. Logical bytes never
// covered by a segment read as zeros.
func (o *vsegmentObject) Read(p []byte) (int, error) {
	if o.closed {
		return 0, ErrClosed
	}
	vsegmentMetrics.reads.Inc()
	if o.pos >= o.size {
		return 0, io.EOF
	}
	if max := o.size - o.pos; int64(len(p)) > max {
		p = p[:max]
	}
	defer func(start int64) {
		vsegmentMetrics.readBytes.Add(o.pos - start)
	}(o.pos)
	total := 0
	for len(p) > 0 {
		rec, ok, err := o.findCover(o.pos)
		if err != nil {
			return total, err
		}
		if !ok {
			// Zero-fill the gap up to the next visible segment (or request end).
			gapEnd := o.pos + int64(len(p))
			err := o.visibleSegments(o.pos, gapEnd, func(r segRecord, tid heap.TID) (bool, error) {
				if r.logStart > o.pos && r.logStart < gapEnd {
					gapEnd = r.logStart
				}
				return false, nil
			})
			if err != nil {
				return total, err
			}
			n := int(gapEnd - o.pos)
			for i := 0; i < n; i++ {
				p[i] = 0
			}
			p = p[n:]
			o.pos += int64(n)
			total += n
			continue
		}
		data, err := o.segmentBytes(rec)
		if err != nil {
			return total, err
		}
		from := int(rec.skip) + int(o.pos-rec.logStart)
		n := int(rec.end() - o.pos)
		if n > len(p) {
			n = len(p)
		}
		copy(p[:n], data[from:from+n])
		p = p[n:]
		o.pos += int64(n)
		total += n
	}
	return total, nil
}

// Write implements io.Writer at the seek position: each call appends one or
// more compressed segments and shadows whatever they overlap.
func (o *vsegmentObject) Write(p []byte) (int, error) {
	if o.closed {
		return 0, ErrClosed
	}
	if o.snap.Historical() {
		return 0, ErrReadOnly
	}
	if o.tx == nil {
		return 0, fmt.Errorf("core: v-segment write requires a transaction")
	}
	vsegmentMetrics.writes.Inc()
	total := 0
	for len(p) > 0 {
		n := len(p)
		if n > MaxSegmentSize {
			n = MaxSegmentSize
		}
		if err := o.writeSegment(p[:n]); err != nil {
			vsegmentMetrics.writeBytes.Add(int64(total))
			return total, err
		}
		p = p[n:]
		total += n
	}
	vsegmentMetrics.writeBytes.Add(int64(total))
	return total, nil
}

func (o *vsegmentObject) writeSegment(data []byte) error {
	off := o.pos
	end := off + int64(len(data))

	// 1. Compress and append to the byte store.
	encoded, err := compress.AppendEncode(o.enc[:0], o.codec, data)
	if err != nil {
		return err
	}
	o.enc = encoded
	compress.Charge(o.store.clock, o.store.cpu, o.codec, len(data))
	storePtr, err := o.bytes.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	if _, err := o.bytes.Write(encoded); err != nil {
		return err
	}

	// 2. Shadow overlapped records, collecting edits first so the B-tree is
	// not mutated mid-range-scan.
	type edit struct {
		tid   heap.TID
		left  *segRecord
		right *segRecord
	}
	var edits []edit
	err = o.visibleSegments(coverLow(off), end-1, func(rec segRecord, tid heap.TID) (bool, error) {
		if rec.end() <= off || rec.logStart >= end {
			return true, nil
		}
		e := edit{tid: tid}
		if rec.logStart < off {
			left := rec
			left.logLen = int32(off - rec.logStart)
			e.left = &left
		}
		if rec.end() > end {
			right := rec
			right.skip = rec.skip + int32(end-rec.logStart)
			right.logStart = end
			right.logLen = int32(rec.end() - end)
			e.right = &right
		}
		edits = append(edits, e)
		return true, nil
	})
	if err != nil {
		return err
	}
	for _, e := range edits {
		if err := o.segRel.Delete(o.tx, e.tid); err != nil {
			return err
		}
		for _, part := range []*segRecord{e.left, e.right} {
			if part == nil {
				continue
			}
			tid, err := o.segRel.Insert(o.tx, part.encode())
			if err != nil {
				return err
			}
			if err := o.segIdx.Insert(uint64(part.logStart), heap.EncodeTID(tid)); err != nil {
				return err
			}
		}
	}

	// 3. Record the new segment.
	rec := segRecord{
		logStart: off,
		logLen:   int32(len(data)),
		storePtr: storePtr,
		storeLen: int32(len(encoded)),
		skip:     0,
		origLen:  int32(len(data)),
	}
	tid, err := o.segRel.Insert(o.tx, rec.encode())
	if err != nil {
		return err
	}
	if err := o.segIdx.Insert(uint64(off), heap.EncodeTID(tid)); err != nil {
		return err
	}

	o.pos = end
	if end > o.size {
		o.size = end
		o.sizeDirty = true
	}
	return nil
}

// Truncate implements Object. Stored bytes are never reclaimed (the store
// is no-overwrite); only the index shrinks.
func (o *vsegmentObject) Truncate(n int64) error {
	if o.closed {
		return ErrClosed
	}
	if o.snap.Historical() {
		return ErrReadOnly
	}
	if n < 0 {
		return ErrBadSeek
	}
	if n >= o.size {
		if n > o.size {
			o.size = n
			o.sizeDirty = true
		}
		return nil
	}
	type edit struct {
		tid  heap.TID
		keep *segRecord
	}
	var edits []edit
	err := o.visibleSegments(coverLow(n), o.size, func(rec segRecord, tid heap.TID) (bool, error) {
		if rec.end() <= n {
			return true, nil
		}
		e := edit{tid: tid}
		if rec.logStart < n {
			left := rec
			left.logLen = int32(n - rec.logStart)
			e.keep = &left
		}
		edits = append(edits, e)
		return true, nil
	})
	if err != nil {
		return err
	}
	for _, e := range edits {
		if err := o.segRel.Delete(o.tx, e.tid); err != nil {
			return err
		}
		if e.keep != nil {
			tid, err := o.segRel.Insert(o.tx, e.keep.encode())
			if err != nil {
				return err
			}
			if err := o.segIdx.Insert(uint64(e.keep.logStart), heap.EncodeTID(tid)); err != nil {
				return err
			}
		}
	}
	o.size = n
	o.sizeDirty = true
	if o.pos > n {
		o.pos = n
	}
	return nil
}

func (o *vsegmentObject) flushSize() error {
	if !o.sizeDirty {
		return nil
	}
	buf := encodeMetaPayload(o.size)
	ok, err := o.segRel.UpdateOwnInPlace(o.tx, o.sizeTID, buf)
	if err != nil {
		return err
	}
	if !ok {
		tid, err := o.segRel.Replace(o.tx, o.sizeTID, buf)
		if err != nil {
			return err
		}
		if err := o.segIdx.Insert(segMetaKey, heap.EncodeTID(tid)); err != nil {
			return err
		}
		o.sizeTID = tid
	}
	o.sizeDirty = false
	return nil
}

// Close flushes the size record and the underlying byte store handle.
func (o *vsegmentObject) Close() error {
	if o.closed {
		return nil
	}
	if !o.snap.Historical() {
		if err := o.flushSize(); err != nil {
			return err
		}
	}
	if err := o.bytes.Close(); err != nil {
		return err
	}
	o.closed = true
	return nil
}
