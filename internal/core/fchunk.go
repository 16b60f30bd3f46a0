package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"postlob/internal/adt"
	"postlob/internal/btree"
	"postlob/internal/buffer"
	"postlob/internal/catalog"
	"postlob/internal/compress"
	"postlob/internal/heap"
	"postlob/internal/storage"
	"postlob/internal/txn"
)

// The f-chunk implementation (§6.3): for each large object a class of the
// form
//
//	create P (sequence-number = int4, data = byte[8000])
//
// is constructed, with a secondary B-tree index mapping sequence numbers to
// tuple TIDs. Records live in the no-overwrite heap, so transactions and
// time travel are automatic. When a conversion codec is configured, each
// chunk is passed through it on the way in and out (just-in-time
// conversion); a chunk that does not shrink is stored raw, which is why 30 %
// compression saves no space — only one such value fits per 8 KB page.

// metaSeq is the index key of the object's metadata record (its size); it
// lies outside the 32-bit chunk sequence space.
const metaSeq = uint64(1) << 40

// metaMagic tags metadata tuple payloads. Chunk payloads start with their
// 32-bit sequence number, which never reaches this value, so a recycled
// heap slot can always be told apart from the tuple an index entry meant
// (vacuum reuses slots but cannot clean the per-object indexes).
const metaMagic = uint32(0xFFFFFFFF)

// Chunk tuple payload: seqno u32, raw length u32, encoded bytes.
// Meta tuple payload: metaMagic u32, size u64 (12 bytes).
const chunkHdr = 8

const metaPayloadSize = 12

func encodeMetaPayload(size int64) []byte {
	buf := make([]byte, metaPayloadSize)
	binary.LittleEndian.PutUint32(buf[0:], metaMagic)
	binary.LittleEndian.PutUint64(buf[4:], uint64(size))
	return buf
}

// payloadMatches reports whether a fetched tuple payload really is the
// record the index key addressed, guarding against recycled slots.
func payloadMatches(key uint64, payload []byte) bool {
	if key == metaSeq {
		return len(payload) == metaPayloadSize && binary.LittleEndian.Uint32(payload) == metaMagic
	}
	return len(payload) >= chunkHdr && binary.LittleEndian.Uint32(payload) == uint32(key)
}

type fchunkObject struct {
	store *Store
	ref   adt.ObjectRef
	meta  *catalog.LargeObjectMeta
	codec compress.Codec
	rel   *heap.Relation
	idx   *btree.Tree
	ix    btree.Cursor // every index lookup goes through it; see visit

	tx   *txn.Txn
	snap txn.Snapshot

	pos  int64
	size int64

	sizeTID   heap.TID // visible metadata tuple
	sizeDirty bool

	// one-chunk write-back cache
	curSeq   int64 // -1 when empty
	curData  []byte
	curTID   heap.TID
	curHas   bool // a stored tuple exists for curSeq
	curDirty bool

	// Sequential read-ahead (see step): lastSeq is the chunk the read path
	// last fetched from the heap, run how many lastSeq+1 steps in a row led
	// to it, and pfNext the first heap block not yet covered by a posted
	// prefetch window — zero until a run arms it (block 0 never needs
	// read-ahead: it precedes any chunk).
	lastSeq int64
	run     int
	pfNext  storage.BlockNum

	closed bool
}

var _ Object = (*fchunkObject)(nil)

// createFChunkStorage makes the chunk class, its index, and the initial
// zero-length metadata record.
func (s *Store) createFChunkStorage(tx *txn.Txn, meta *catalog.LargeObjectMeta) error {
	if tx == nil {
		return fmt.Errorf("core: %v objects require a transaction", meta.Kind)
	}
	rel, err := heap.Create(s.pool, meta.SM, meta.DataRel)
	if err != nil {
		return err
	}
	idx, err := s.btrees.Create(meta.SM, meta.IdxRel, s.btreeConfig())
	if err != nil {
		return err
	}
	tid, err := rel.Insert(tx, encodeMetaPayload(0))
	if err != nil {
		return err
	}
	return idx.Insert(metaSeq, heap.EncodeTID(tid))
}

func (s *Store) dropFChunkStorage(meta *catalog.LargeObjectMeta) error {
	rel, err := heap.Open(s.pool, meta.SM, meta.DataRel)
	if err != nil {
		return err
	}
	if err := rel.Drop(); err != nil {
		return err
	}
	idx, err := s.btrees.Open(meta.SM, meta.IdxRel, s.btreeConfig())
	if err != nil {
		return err
	}
	return idx.Drop()
}

// btreeConfig charges ~200 instructions per node visited when a CPU model
// is configured; this is the traversal overhead §9.2 blames for f-chunk's
// slower random access.
func (s *Store) btreeConfig() btree.Config {
	return btree.Config{Clock: s.clock, SearchCPU: s.cpu.Cost(200)}
}

func (s *Store) openFChunk(tx *txn.Txn, snap txn.Snapshot, ref adt.ObjectRef, meta *catalog.LargeObjectMeta) (Object, error) {
	rel, err := heap.Open(s.pool, meta.SM, meta.DataRel)
	if err != nil {
		return nil, err
	}
	idx, err := s.btrees.Open(meta.SM, meta.IdxRel, s.btreeConfig())
	if err != nil {
		return nil, err
	}
	codec, _ := compress.Lookup(meta.Codec)
	o := &fchunkObject{
		store: s, ref: ref, meta: meta, codec: codec,
		rel: rel, idx: idx, ix: idx.Cursor(),
		tx: tx, snap: snap,
		curSeq: -1, lastSeq: -1,
	}
	tid, err := o.visit(metaSeq, func(payload []byte) error {
		o.size = int64(binary.LittleEndian.Uint64(payload[4:]))
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: object %d metadata: %w", ref.OID, err)
	}
	if !tid.Valid() {
		return nil, fmt.Errorf("core: object %d has no metadata record", ref.OID)
	}
	o.sizeTID = tid
	return o, nil
}

func (o *fchunkObject) chunkSize() int64 { return int64(o.meta.ChunkSize) }

// visit finds the version of key the handle's snapshot sees and, when use is
// non-nil, runs use on its payload in place: in the buffer pool, under the
// page's shared content latch, so whatever use copies out is the read's only
// copy. use must not keep the slice. visit returns the version's TID, or
// InvalidTID when no version is visible. Live and historical handles are the
// same code path: time travel is merely an older snapshot.
//
// Superseded versions stay in the index (the no-overwrite philosophy) and
// are filtered here by tuple visibility; entries whose heap slot vacuum
// recycled for a different record are detected by tag mismatch and pruned.
// The lookup goes through the handle's cursor, so reading chunk after chunk
// descends the index once.
func (o *fchunkObject) visit(key uint64, use func(payload []byte) error) (heap.TID, error) {
	vals, err := o.ix.Lookup(key)
	if err != nil {
		return heap.InvalidTID, err
	}
	// Newest entries are most likely visible; scan from the end.
	for i := len(vals) - 1; i >= 0; i-- {
		tid := heap.DecodeTID(vals[i])
		matched := false
		var useErr error
		err := o.rel.ViewSnap(o.snap, tid, func(payload []byte) {
			if matched = payloadMatches(key, payload); matched && use != nil {
				useErr = use(payload)
			}
		})
		switch {
		case err == nil && matched:
			return tid, useErr
		case err == nil || errors.Is(err, heap.ErrNoTuple):
			o.pruneStale(key, vals[i])
		case !errors.Is(err, heap.ErrNotVisible):
			return heap.InvalidTID, err
		}
	}
	return heap.InvalidTID, nil
}

// decodeChunk appends the bytes of chunk seq, decoded from its stored
// payload, to dst and checks their length against the payload header.
func (o *fchunkObject) decodeChunk(seq int64, dst, payload []byte) ([]byte, error) {
	rawLen := int(binary.LittleEndian.Uint32(payload[4:]))
	out, err := compress.DecodeInto(dst, payload[chunkHdr:])
	if err != nil {
		return dst, fmt.Errorf("core: chunk %d of object %d: %w", seq, o.ref.OID, err)
	}
	if got := len(out) - len(dst); got != rawLen {
		return dst, fmt.Errorf("core: chunk %d of object %d: length %d, header says %d", seq, o.ref.OID, got, rawLen)
	}
	// Output conversion: just-in-time uncompression, charged per byte.
	compress.Charge(o.store.clock, o.store.cpu, o.codec, rawLen)
	return out, nil
}

// pruneStale removes an index entry whose target tuple no longer exists
// (vacuumed, slot tombstoned or recycled). Physical cleanup, not
// transactional; skipped on historical handles.
//
// The staleness decision is re-checked under the tree's writer lock
// (DeleteIf): between observing the dead slot and deleting the entry, a
// writer may recycle that very slot for a fresh version of this key and
// re-insert the identical (key, val) pair. Two pruners acting on the
// pre-recycle observation would then delete both the stale entry and its
// fresh duplicate, leaving the live version unreachable.
func (o *fchunkObject) pruneStale(key, val uint64) {
	if o.snap.Historical() {
		return
	}
	tid := heap.DecodeTID(val)
	_ = o.idx.DeleteIf(key, val, func() (bool, error) {
		payload, err := o.rel.FetchAny(tid)
		if errors.Is(err, heap.ErrNoTuple) {
			return true, nil
		}
		if err != nil {
			return false, err
		}
		return !payloadMatches(key, payload), nil
	}) // best effort; a concurrent pruner may win
}

// Ref implements Object.
func (o *fchunkObject) Ref() adt.ObjectRef { return o.ref }

// Size implements Object.
func (o *fchunkObject) Size() (int64, error) {
	if o.closed {
		return 0, ErrClosed
	}
	return o.size, nil
}

// Seek implements io.Seeker.
func (o *fchunkObject) Seek(offset int64, whence int) (int64, error) {
	if o.closed {
		return 0, ErrClosed
	}
	fchunkMetrics.seeks.Inc()
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
	if np != o.pos {
		o.run = 0 // a jump ends any sequential run
	}
	o.pos = np
	return np, nil
}

// loadChunk makes seq the cached chunk, flushing any dirty predecessor. The
// chunk decodes into the cache's own buffer, reused from chunk to chunk.
func (o *fchunkObject) loadChunk(seq int64) error {
	if o.curSeq == seq {
		return nil
	}
	if err := o.flushChunk(); err != nil {
		return err
	}
	o.curSeq = -1 // the buffer is overwritten below; on error nothing is cached
	data := o.curData[:0]
	tid, err := o.visit(uint64(seq), func(payload []byte) (err error) {
		data, err = o.decodeChunk(seq, data, payload)
		return err
	})
	if err != nil {
		return err
	}
	fchunkChunkLoads.Inc()
	o.curSeq, o.curData, o.curTID, o.curHas, o.curDirty = seq, data, tid, tid.Valid(), false
	return nil
}

// readChunk copies the bytes of chunk seq from offset within into dst and
// returns how many the chunk holds there; the rest of dst is a sparse tail
// (trailing zeros are never materialised) for the caller to zero. When dst
// spans the whole chunk the chunk decodes from the pinned page straight into
// dst — the read's one copy — and the cache is left alone; any other span,
// and a chunk holding the handle's own unflushed writes, goes through the
// one-chunk cache.
func (o *fchunkObject) readChunk(seq, within int64, dst []byte) (int, error) {
	whole := within == 0 && (int64(len(dst)) == o.chunkSize() || o.pos+int64(len(dst)) == o.size)
	if o.curSeq != seq && whole {
		var out []byte
		tid, err := o.visit(uint64(seq), func(payload []byte) (err error) {
			out, err = o.decodeChunk(seq, dst[:0:len(dst)], payload)
			return err
		})
		if err != nil {
			return 0, err
		}
		fchunkChunkLoads.Inc()
		o.step(seq, tid)
		if len(out) > len(dst) {
			// A stored chunk longer than its logical span decoded into a
			// fresh buffer instead of dst: show the span's part of it.
			return copy(dst, out), nil
		}
		return len(out), nil
	}
	if o.curSeq != seq {
		if err := o.loadChunk(seq); err != nil {
			return 0, err
		}
		o.step(seq, o.curTID)
	}
	if within >= int64(len(o.curData)) {
		return 0, nil
	}
	return copy(dst, o.curData[within:]), nil
}

// step records that chunk seq was just fetched for a Read and, once reads
// form a sequential run, keeps the prefetcher ahead of it. Two lastSeq+1
// steps in a row arm the window: one is what a small read straddling a chunk
// boundary looks like, and posting a window for it costs a random reader
// device reads it never uses.
func (o *fchunkObject) step(seq int64, tid heap.TID) {
	if seq == o.lastSeq+1 {
		o.run++
	} else {
		o.run = 0
	}
	o.lastSeq = seq
	if o.run >= 2 && tid.Valid() {
		o.readAhead(tid.Blk)
	}
}

// supersedeChunk makes seq the cached chunk for a write that covers all of
// it: the cache starts empty, and of the stored version only the TID — which
// the flush needs to Replace it — is looked up.
func (o *fchunkObject) supersedeChunk(seq int64) error {
	if o.curSeq == seq {
		return nil
	}
	if err := o.flushChunk(); err != nil {
		return err
	}
	tid, err := o.visit(uint64(seq), nil)
	if err != nil {
		return err
	}
	o.curSeq = seq
	o.curDirty = false
	o.curData = o.curData[:0]
	o.curTID = tid
	o.curHas = tid.Valid()
	return nil
}

// readAhead keeps the scan prefetcher ahead of a sequential Read that just
// fetched a chunk from heap block blk. Chunk tuples are appended in block
// order, so the chunks after it live at ascending heap blocks; the frontier
// (pfNext) advances a whole window at a time, because fresh, non-overlapping
// windows let the prefetcher issue one batched device read per window
// instead of chasing the reader block by block with windows that are
// already mostly resident. Only Read calls it: what a sequential Write is
// about to supersede sits in recycled, scattered blocks, and reading ahead
// of it evicts the writer's own pages for nothing.
func (o *fchunkObject) readAhead(blk storage.BlockNum) {
	const w = buffer.DefaultPrefetchWindow
	next := blk + 1
	switch {
	case o.pfNext == 0 || next > o.pfNext || next+2*w < o.pfNext:
		// Frontier unset, overtaken, or far ahead of a scan that
		// restarted behind it: open a fresh window at the reader.
		o.rel.Prefetch(next, w)
		o.pfNext = next + w
	case next+w >= o.pfNext:
		// The reader is within a window of the frontier: extend it.
		o.rel.Prefetch(o.pfNext, w)
		o.pfNext += w
	}
}

// flushChunk writes back the cached chunk if dirty.
func (o *fchunkObject) flushChunk() error {
	if !o.curDirty {
		return nil
	}
	encoded, err := compress.Encode(o.codec, o.curData)
	if err != nil {
		return err
	}
	// Input conversion cost.
	compress.Charge(o.store.clock, o.store.cpu, o.codec, len(o.curData))
	payload := make([]byte, chunkHdr+len(encoded))
	binary.LittleEndian.PutUint32(payload[0:], uint32(o.curSeq))
	binary.LittleEndian.PutUint32(payload[4:], uint32(len(o.curData)))
	copy(payload[chunkHdr:], encoded)

	var tid heap.TID
	if o.curHas {
		tid, err = o.rel.Replace(o.tx, o.curTID, payload)
	} else {
		tid, err = o.rel.Insert(o.tx, payload)
	}
	if err != nil {
		return err
	}
	if err := o.idx.Insert(uint64(o.curSeq), heap.EncodeTID(tid)); err != nil {
		return err
	}
	o.curTID = tid
	o.curHas = true
	o.curDirty = false
	return nil
}

// flushSize persists the size metadata record.
func (o *fchunkObject) flushSize() error {
	if !o.sizeDirty {
		return nil
	}
	buf := encodeMetaPayload(o.size)
	ok, err := o.rel.UpdateOwnInPlace(o.tx, o.sizeTID, buf)
	if err != nil {
		return err
	}
	if !ok {
		tid, err := o.rel.Replace(o.tx, o.sizeTID, buf)
		if err != nil {
			return err
		}
		if err := o.idx.Insert(metaSeq, heap.EncodeTID(tid)); err != nil {
			return err
		}
		o.sizeTID = tid
	}
	o.sizeDirty = false
	return nil
}

// Read implements io.Reader at the seek position.
func (o *fchunkObject) Read(p []byte) (int, error) {
	if o.closed {
		return 0, ErrClosed
	}
	fchunkMetrics.reads.Inc()
	if o.pos >= o.size {
		return 0, io.EOF
	}
	if max := o.size - o.pos; int64(len(p)) > max {
		p = p[:max]
	}
	total := 0
	for len(p) > 0 {
		seq := o.pos / o.chunkSize()
		within := o.pos % o.chunkSize()
		n := o.chunkSize() - within
		if int64(len(p)) < n {
			n = int64(len(p))
		}
		copied, err := o.readChunk(seq, within, p[:n])
		if err != nil {
			fchunkMetrics.readBytes.Add(int64(total))
			return total, err
		}
		// The chunk may be shorter than the logical span (trailing zeros
		// were never materialised): zero the rest.
		clear(p[copied:n])
		// Per-chunk accounting: the sum of these must equal read_bytes (the
		// per-call total below) — the conservation law the harnesses assert.
		fchunkChunkReadBytes.Add(n)
		p = p[n:]
		o.pos += n
		total += int(n)
	}
	fchunkMetrics.readBytes.Add(int64(total))
	return total, nil
}

// Write implements io.Writer at the seek position.
func (o *fchunkObject) Write(p []byte) (int, error) {
	if o.closed {
		return 0, ErrClosed
	}
	if o.snap.Historical() {
		return 0, ErrReadOnly
	}
	if o.tx == nil {
		return 0, fmt.Errorf("core: f-chunk write requires a transaction")
	}
	fchunkMetrics.writes.Inc()
	defer func(start int64) {
		// Count what this call actually consumed, including a short write cut
		// off by a chunk-load error.
		fchunkMetrics.writeBytes.Add(o.pos - start)
	}(o.pos)
	total := 0
	for len(p) > 0 {
		seq := o.pos / o.chunkSize()
		within := o.pos % o.chunkSize()
		n := o.chunkSize() - within
		if int64(len(p)) < n {
			n = int64(len(p))
		}
		var err error
		if n == o.chunkSize() {
			err = o.supersedeChunk(seq)
		} else {
			err = o.loadChunk(seq)
		}
		if err != nil {
			return total, err
		}
		need := int(within + n)
		if len(o.curData) < need {
			o.curData = append(o.curData, make([]byte, need-len(o.curData))...)
		}
		copy(o.curData[within:need], p[:n])
		o.curDirty = true
		p = p[n:]
		o.pos += n
		total += int(n)
		if o.pos > o.size {
			o.size = o.pos
			o.sizeDirty = true
		}
	}
	return total, nil
}

// Truncate implements Object.
func (o *fchunkObject) Truncate(n int64) error {
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
	lastOld := (o.size - 1) / o.chunkSize()
	firstDead := (n + o.chunkSize() - 1) / o.chunkSize()
	// Trim the boundary chunk.
	if n%o.chunkSize() != 0 {
		seq := n / o.chunkSize()
		if err := o.loadChunk(seq); err != nil {
			return err
		}
		keep := int(n % o.chunkSize())
		if len(o.curData) > keep {
			o.curData = o.curData[:keep]
			o.curDirty = true
		}
	}
	// Delete whole chunks beyond the boundary.
	if o.curSeq >= firstDead {
		// Cache holds a doomed chunk; drop it without flushing.
		o.curSeq, o.curDirty, o.curHas = -1, false, false
		o.curData = o.curData[:0]
	}
	for seq := firstDead; seq <= lastOld; seq++ {
		tid, err := o.visit(uint64(seq), nil)
		if err != nil {
			return err
		}
		if tid.Valid() {
			if err := o.rel.Delete(o.tx, tid); err != nil {
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

// Close flushes buffered state. The handle must be closed before the
// transaction commits for buffered writes to be part of it.
func (o *fchunkObject) Close() error {
	if o.closed {
		return nil
	}
	if !o.snap.Historical() {
		if err := o.flushChunk(); err != nil {
			return err
		}
		if err := o.flushSize(); err != nil {
			return err
		}
	}
	o.closed = true
	return nil
}
