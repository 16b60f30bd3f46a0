// Package heap implements POSTGRES-style no-overwrite heap relations
// ("classes"). A tuple is never updated in place: an insert writes a new
// tuple stamped with the inserting transaction's XID (xmin); a delete merely
// stamps the deleting XID (xmax); a replace is a delete plus an insert.
// Because superseded tuple versions remain on disk together with the commit
// timestamps of the transactions that created and deleted them, any past
// state of a relation can be reconstructed — this is the time travel that
// the f-chunk and v-segment large-object implementations inherit for free
// (paper §6.3, §6.4).
package heap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"postlob/internal/buffer"
	"postlob/internal/obs"
	"postlob/internal/page"
	"postlob/internal/storage"
	"postlob/internal/txn"
)

// TupleHeaderSize is the fixed per-tuple overhead — the on-page version
// metadata every tuple carries:
//
//	0..3   xmin  — inserting transaction
//	4..7   xmax  — deleting transaction (InvalidXID if live)
//	8..9   infomask hint bits
//	10..11 reserved
//	12..19 previous version's TID (EncodeTID form; EncodeTID(InvalidTID)
//	       for a tuple that did not supersede another) — the back link of
//	       the version chain a Replace grows
const TupleHeaderSize = 20

// Infomask hint bits cache commit-log lookups on the tuple itself.
const (
	hintXminCommitted uint16 = 1 << iota
	hintXminAborted
	hintXmaxCommitted
	hintXmaxAborted
)

// MaxTupleSize is the largest tuple payload a heap page can hold.
const MaxTupleSize = page.Size - 16 - 4 - TupleHeaderSize // page header, line ptr, tuple header

// Errors returned by heap operations.
var (
	ErrTupleTooBig   = errors.New("heap: tuple exceeds page capacity")
	ErrNotVisible    = errors.New("heap: tuple not visible")
	ErrNoTuple       = errors.New("heap: no tuple at TID")
	ErrConcurrentDel = errors.New("heap: tuple already deleted")
)

// TID addresses a tuple: block number plus line pointer slot.
type TID struct {
	Blk  storage.BlockNum
	Slot page.SlotNum
}

// InvalidTID never addresses a real tuple.
var InvalidTID = TID{Blk: 0, Slot: page.InvalidSlot}

func (t TID) String() string { return fmt.Sprintf("(%d,%d)", t.Blk, t.Slot) }

// Valid reports whether the TID could address a tuple.
func (t TID) Valid() bool { return t.Slot != page.InvalidSlot }

// EncodeTID packs a TID into 8 bytes for storage inside index entries.
func EncodeTID(t TID) uint64 {
	return uint64(t.Blk)<<16 | uint64(t.Slot)
}

// DecodeTID unpacks EncodeTID.
func DecodeTID(v uint64) TID {
	return TID{Blk: storage.BlockNum(v >> 16), Slot: page.SlotNum(v & 0xFFFF)}
}

// Pool bundles the buffer pool with the transaction manager; every access
// method in the system shares one.
type Pool struct {
	Buf *buffer.Pool
	Mgr *txn.Manager

	CkptMu sync.Mutex // held by core.Checkpoint: one checkpoint at a time

	stamps     atomic.Uint64 // versions stamped deleted, pool-wide
	stampWatch atomic.Pointer[stampWatch]
}

type stampWatch struct {
	every uint64
	kick  func()
}

// WatchStamps asks for a call of kick each time another every versions have
// been stamped deleted anywhere in the pool: the cue for a vacuum daemon
// that enough has changed to be worth a round before its next clock tick,
// however fast or slow the writers are. kick runs on the stamping
// goroutine, so it must not block. A nil kick cancels.
func (p *Pool) WatchStamps(every uint64, kick func()) {
	if kick == nil {
		p.stampWatch.Store(nil)
		return
	}
	p.stampWatch.Store(&stampWatch{every: every, kick: kick})
}

func (p *Pool) noteStamp() {
	n := p.stamps.Add(1)
	if w := p.stampWatch.Load(); w != nil && n%w.every == 0 {
		w.kick()
	}
}

// slottedChecksummer checksums slotted pages via their reserved header slot.
type slottedChecksummer struct{}

func (slottedChecksummer) Stamp(img []byte)             { page.Page(img).SetChecksum() }
func (slottedChecksummer) Verify(img []byte) error      { return page.Page(img).VerifyChecksum() }
func (slottedChecksummer) Hole(img []byte) (off, n int) { return page.Page(img).Hole() }

// Relation is an open heap relation. Its handle lives on the relation's
// buffer-pool descriptor, so every opener shares one — and with it the
// insert-target hint, the free-space map, and the tuple-mutation mutex.
type Relation struct {
	pool *Pool
	rel  *buffer.Rel // the buffer pool's descriptor: name, manager, pages

	// mu is the relation lock: exclusive only for Vacuum's structural
	// compaction; shared for tuple mutations (Insert, Delete), which
	// coordinate with each other through each frame's content latch plus
	// the placement mutex below. Snapshot reads take no relation lock at
	// all — a reader's only synchronisation is the shared content latch of
	// the single page it inspects, so readers never queue behind writers
	// on relation state.
	mu sync.RWMutex

	// placeMu guards the insert placement hints. It is a leaf lock: never
	// held across a buffer-pool call, only around hint reads and updates,
	// so concurrent inserters contend for nanoseconds while the page-level
	// work proceeds in parallel under per-frame latches.
	placeMu       sync.Mutex
	insertTarget  storage.BlockNum   // guarded by placeMu; block to try first for inserts
	hasInsertHint bool               // guarded by placeMu
	freeBlocks    []storage.BlockNum // guarded by placeMu; blocks vacuum found reusable space in

	// stamped is the dead-candidate bitmap: bit b is set when block b may
	// hold a version whose xmax stamp belongs to a deleter that committed or
	// is still in flight — the only versions a history-reclaiming vacuum can
	// ever free besides aborted debris. Delete sets a block's bit; a vacuum
	// visit recomputes it. In memory only: walked is false on a fresh handle
	// and the first vacuum rebuilds the bitmap with a full walk.
	stamped []uint64 // guarded by placeMu
	// walked says a full vacuum walk has completed on this handle, and
	// walkedAborts is the transaction manager's abort count read just before
	// that walk began: while the count stands, no transaction has aborted
	// since, so no block hides aborted-insert debris that no stamp points at.
	walked       bool   // guarded by mu
	walkedAborts uint64 // guarded by mu
}

func (r *Relation) setStamped(blk storage.BlockNum, on bool) {
	r.placeMu.Lock()
	defer r.placeMu.Unlock()
	w := int(blk / 64)
	if !on {
		if w < len(r.stamped) {
			r.stamped[w] &^= 1 << (blk % 64)
		}
		return
	}
	for len(r.stamped) <= w {
		r.stamped = append(r.stamped, 0)
	}
	r.stamped[w] |= 1 << (blk % 64)
}

// stampedBlocks returns the blocks below n whose bit is set, ascending.
func (r *Relation) stampedBlocks(n storage.BlockNum) []storage.BlockNum {
	r.placeMu.Lock()
	defer r.placeMu.Unlock()
	var out []storage.BlockNum
	for w, word := range r.stamped {
		for ; word != 0; word &= word - 1 {
			if blk := storage.BlockNum(w*64 + bits.TrailingZeros64(word)); blk < n {
				out = append(out, blk)
			}
		}
	}
	return out
}

// Create makes a new, empty heap relation on the given storage manager.
func Create(p *Pool, sm storage.ID, name storage.RelName) (*Relation, error) {
	mgr, err := p.Buf.Switch().Get(sm)
	if err != nil {
		return nil, err
	}
	if err := mgr.Create(name); err != nil {
		return nil, err
	}
	return p.handle(p.Buf.Rel(sm, name))
}

// Open returns the shared handle on an existing heap relation.
func Open(p *Pool, sm storage.ID, name storage.RelName) (*Relation, error) {
	rel := p.Buf.Rel(sm, name)
	if !rel.Installed() {
		mgr, err := p.Buf.Switch().Get(sm)
		if err != nil {
			return nil, err
		}
		if !mgr.Exists(name) {
			return nil, fmt.Errorf("%w: %s", storage.ErrNoRelation, name)
		}
	}
	return p.handle(rel)
}

// handle returns the Relation installed on rel, installing one on first
// use. Heap relations are slotted pages; the install has the pool stamp and
// verify the page-header write-back checksum, so a torn block left by a
// crash is detected on read instead of parsed as tuples.
func (p *Pool) handle(rel *buffer.Rel) (*Relation, error) {
	return buffer.Handle(rel, slottedChecksummer{}, func(rel *buffer.Rel) *Relation {
		return &Relation{pool: p, rel: rel}
	})
}

// Name returns the relation's storage name.
func (r *Relation) Name() storage.RelName { return r.rel.Name() }

// StorageManager returns the ID of the storage manager holding the relation.
func (r *Relation) StorageManager() storage.ID { return r.rel.SM() }

// NBlocks returns the relation's current length in pages.
func (r *Relation) NBlocks() (storage.BlockNum, error) {
	return r.rel.NBlocks()
}

// Prefetch posts an advisory read-ahead window to the buffer pool's
// background engine (a no-op without one): the caller expects to read up to
// n blocks starting at blk soon. Never waits for I/O, and posts nothing
// when the pool already holds the window (buffer.Rel.Prefetch).
func (r *Relation) Prefetch(blk storage.BlockNum, n int) {
	r.rel.Prefetch(blk, n)
}

// Size returns the relation's footprint in bytes.
func (r *Relation) Size() (int64, error) {
	n, err := r.NBlocks()
	if err != nil {
		return 0, err
	}
	return int64(n) * page.Size, nil
}

// tuple header helpers operating on raw item bytes.

func tupleXmin(item []byte) txn.XID { return txn.XID(binary.LittleEndian.Uint32(item[0:])) }
func tupleXmax(item []byte) txn.XID { return txn.XID(binary.LittleEndian.Uint32(item[4:])) }
func tupleMask(item []byte) uint16  { return binary.LittleEndian.Uint16(item[8:]) }

// VersionMeta is the decoded per-tuple version metadata: the xmin/xmax
// visibility stamps, the hint-bit mask caching their commit-log verdicts,
// and the version chain's back link to the tuple this one superseded.
type VersionMeta struct {
	Xmin  txn.XID
	Xmax  txn.XID
	Hints uint16
	Prev  TID
}

// ErrShortTuple reports an item too small to carry a version header.
var ErrShortTuple = errors.New("heap: item shorter than tuple header")

// DecodeVersionMeta decodes the version metadata from a raw tuple image
// (header plus payload, as stored on a slotted page).
func DecodeVersionMeta(item []byte) (VersionMeta, error) {
	if len(item) < TupleHeaderSize {
		return VersionMeta{}, fmt.Errorf("%w: %d < %d", ErrShortTuple, len(item), TupleHeaderSize)
	}
	m := VersionMeta{
		Xmin:  tupleXmin(item),
		Xmax:  tupleXmax(item),
		Hints: tupleMask(item),
		Prev:  DecodeTID(binary.LittleEndian.Uint64(item[12:])),
	}
	if m.Hints&^(hintXminCommitted|hintXminAborted|hintXmaxCommitted|hintXmaxAborted) != 0 {
		return VersionMeta{}, fmt.Errorf("heap: unknown hint bits %#x", m.Hints)
	}
	return m, nil
}

// AppendEncode appends the 20-byte on-page encoding of m to dst. The
// reserved bytes are written as zero; DecodeVersionMeta(AppendEncode(m))
// round-trips exactly.
func (m VersionMeta) AppendEncode(dst []byte) []byte {
	var hdr [TupleHeaderSize]byte
	m.put(hdr[:])
	return append(dst, hdr[:]...)
}

// put writes the on-page encoding of m over the first TupleHeaderSize bytes
// of item.
func (m VersionMeta) put(item []byte) {
	binary.LittleEndian.PutUint32(item[0:], uint32(m.Xmin))
	binary.LittleEndian.PutUint32(item[4:], uint32(m.Xmax))
	binary.LittleEndian.PutUint16(item[8:], m.Hints)
	clear(item[10:12])
	binary.LittleEndian.PutUint64(item[12:], EncodeTID(m.Prev))
}

// addTuple builds a tuple version on p: the header and data are written
// straight into the reserved item, so the caller's bytes are copied once, to
// the page.
func addTuple(p page.Page, m VersionMeta, data []byte) (page.SlotNum, error) {
	slot, item, err := p.AllocItem(TupleHeaderSize + len(data))
	if err != nil {
		return slot, err
	}
	m.put(item)
	copy(TupleData(item), data)
	return slot, nil
}

// TupleMeta returns the version metadata of the tuple stored at tid,
// regardless of visibility — the raw chain link, for vacuum diagnostics and
// test oracles.
func (r *Relation) TupleMeta(tid TID) (VersionMeta, error) {
	f, err := r.rel.Get(tid.Blk)
	if err != nil {
		return VersionMeta{}, err
	}
	defer f.Release()
	rlatch(f)
	defer f.RUnlockContent()
	item, err := f.Page().Item(tid.Slot)
	if err != nil {
		return VersionMeta{}, fmt.Errorf("%w: %s (%v)", ErrNoTuple, tid, err)
	}
	return DecodeVersionMeta(item)
}

func setTupleXmax(item []byte, x txn.XID) {
	binary.LittleEndian.PutUint32(item[4:], uint32(x))
	// Clear stale xmax hints; the new xmax is undecided.
	mask := tupleMask(item) &^ (hintXmaxCommitted | hintXmaxAborted)
	binary.LittleEndian.PutUint16(item[8:], mask)
}

func setTupleHint(item []byte, bit uint16) {
	binary.LittleEndian.PutUint16(item[8:], tupleMask(item)|bit)
}

// TupleData returns the payload portion of a raw tuple image.
func TupleData(item []byte) []byte { return item[TupleHeaderSize:] }

// Relation metrics, summed across all relations; registered once at package
// init. The three versions.* metrics obey a conservation law the soak
// harness asserts: every version ever created is either still live or was
// reclaimed by vacuum — created == live + reclaimed — for workloads that do
// not drop whole relations (a drop discards live versions uncounted).
var (
	obsInserts = obs.NewCounter("heap.inserts")
	obsFetches = obs.NewCounter("heap.fetches")
	obsScans   = obs.NewCounter("heap.scans")

	// vacuum.blocks_visited counts every block a vacuum latched; full_walks
	// counts the calls that walked a whole relation instead of its stamped
	// blocks. visited <= blocks stamped since the relation's previous visit +
	// blocks covered by full walks, which the vacuum tests assert.
	obsVacBlocksVisited = obs.NewCounter("vacuum.blocks_visited")
	obsVacFullWalks     = obs.NewCounter("vacuum.full_walks")

	obsVersionsCreated   = obs.NewCounter("versions.created")
	obsVersionsReclaimed = obs.NewCounter("versions.reclaimed")
	obsVersionsLive      = obs.NewGauge("versions.live")

	// obsReadLatchWaits counts snapshot reads that found a page's content
	// latch held exclusively and had to wait. On disjoint working sets this
	// stays exactly zero — the readers-never-block-on-writers property the
	// SI soak asserts.
	obsReadLatchWaits = obs.NewCounter("heap.read_latch_waits")
)

// rlatch takes f's content latch shared, counting the acquisitions that
// could not proceed immediately. The snapshot read path uses this instead of
// RLockContent so "did any reader ever wait?" is observable.
func rlatch(f *buffer.Frame) {
	if f.TryRLockContent() {
		return
	}
	obsReadLatchWaits.Inc()
	f.RLockContent()
}

// Insert appends a tuple and returns its TID. The tuple becomes visible to
// other transactions when t commits.
func (r *Relation) Insert(t *txn.Txn, data []byte) (TID, error) {
	return r.insert(t, data, InvalidTID)
}

// insert writes a new tuple version whose chain back link is prev. Inserters
// hold the relation lock shared — Vacuum's compaction is the only exclusive
// holder — and serialise page placement through placeMu plus per-frame
// latches, so concurrent writers to different pages proceed in parallel. The
// tuple is built on the target page under its exclusive content latch.
func (r *Relation) insert(t *txn.Txn, data []byte, prev TID) (TID, error) {
	obsInserts.Inc()
	if len(data) > MaxTupleSize {
		return InvalidTID, fmt.Errorf("%w: %d > %d", ErrTupleTooBig, len(data), MaxTupleSize)
	}
	t.MarkWriter()
	meta := VersionMeta{Xmin: t.ID(), Xmax: txn.InvalidXID, Prev: prev}

	r.mu.RLock()
	defer r.mu.RUnlock()

	// Try the hinted insert target first, then blocks vacuum reclaimed
	// space in, then extend.
	r.placeMu.Lock()
	target, has := r.insertTarget, r.hasInsertHint
	r.placeMu.Unlock()
	if has {
		if tid, ok, err := r.tryInsertAt(target, meta, data); err != nil {
			return InvalidTID, err
		} else if ok {
			return r.noteInsert(target, tid), nil
		}
	}
	for {
		r.placeMu.Lock()
		if len(r.freeBlocks) == 0 {
			r.placeMu.Unlock()
			break
		}
		blk := r.freeBlocks[len(r.freeBlocks)-1]
		r.placeMu.Unlock()
		tid, ok, err := r.tryInsertAt(blk, meta, data)
		if err != nil {
			return InvalidTID, err
		}
		if ok {
			return r.noteInsert(blk, tid), nil
		}
		// The block filled up (possibly under a concurrent inserter); pop it
		// if it is still the list's tail — another inserter may already have.
		r.placeMu.Lock()
		if n := len(r.freeBlocks); n > 0 && r.freeBlocks[n-1] == blk {
			r.freeBlocks = r.freeBlocks[:n-1]
		}
		r.placeMu.Unlock()
	}
	f, blk, err := r.rel.NewBlock()
	if err != nil {
		return InvalidTID, err
	}
	defer f.Release()
	f.LockContent()
	p := f.Page()
	if !p.IsInitialized() {
		p.Init(0)
	}
	slot, err := addTuple(p, meta, data)
	if err != nil {
		f.UnlockContent()
		return InvalidTID, err
	}
	f.MarkDirty()
	f.UnlockContent()
	return r.noteInsert(blk, TID{Blk: blk, Slot: slot}), nil
}

// noteInsert records a successful placement: the block becomes the next
// insert target and the version counters advance.
func (r *Relation) noteInsert(blk storage.BlockNum, tid TID) TID {
	r.placeMu.Lock()
	r.insertTarget, r.hasInsertHint = blk, true
	r.placeMu.Unlock()
	obsVersionsCreated.Inc()
	obsVersionsLive.Inc()
	return tid
}

// tryInsertAt attempts to place the tuple on an existing block.
func (r *Relation) tryInsertAt(blk storage.BlockNum, meta VersionMeta, data []byte) (TID, bool, error) {
	f, err := r.rel.Get(blk)
	if err != nil {
		return InvalidTID, false, err
	}
	defer f.Release()
	f.LockContent()
	defer f.UnlockContent()
	p := f.Page()
	if !p.IsInitialized() {
		p.Init(0)
	}
	slot, err := addTuple(p, meta, data)
	if errors.Is(err, page.ErrPageFull) {
		return InvalidTID, false, nil
	}
	if err != nil {
		return InvalidTID, false, err
	}
	f.MarkDirty()
	return TID{Blk: blk, Slot: slot}, true, nil
}

// Delete stamps the tuple at tid with t's XID. The old version remains for
// readers with older snapshots and for time travel. Deleting a tuple that a
// committed transaction already deleted returns ErrConcurrentDel.
func (r *Relation) Delete(t *txn.Txn, tid TID) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, err := r.rel.Get(tid.Blk)
	if err != nil {
		return err
	}
	defer f.Release()
	f.LockContent()
	defer f.UnlockContent()
	item, err := f.Page().Item(tid.Slot)
	if err != nil {
		return fmt.Errorf("%w: %s (%v)", ErrNoTuple, tid, err)
	}
	if !r.visible(t.Snapshot(), item, f, true) {
		return fmt.Errorf("%w: %s", ErrNotVisible, tid)
	}
	if xmax := tupleXmax(item); xmax != txn.InvalidXID && xmax != t.ID() {
		// Someone else stamped it; if their delete aborted we may proceed.
		if r.pool.Mgr.Status(xmax) != txn.Aborted {
			return fmt.Errorf("%w: %s by txn %d", ErrConcurrentDel, tid, xmax)
		}
	}
	t.MarkWriter()
	setTupleXmax(item, t.ID())
	f.MarkDirty()
	// Under the relation lock (shared) a vacuum cannot be between reading the
	// bitmap and visiting this block, so it sees either neither the stamp nor
	// the bit, or both.
	r.setStamped(tid.Blk, true)
	r.pool.noteStamp()
	return nil
}

// UpdateOwnInPlace overwrites the payload of a same-sized tuple that t
// itself inserted (and has not deleted) in this transaction. Since no other
// transaction can see the tuple yet and time travel is commit-grained, this
// is not an overwrite of visible history. Returns false when the tuple does
// not qualify, in which case the caller should Replace instead.
func (r *Relation) UpdateOwnInPlace(t *txn.Txn, tid TID, data []byte) (bool, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, err := r.rel.Get(tid.Blk)
	if err != nil {
		return false, err
	}
	defer f.Release()
	f.LockContent()
	defer f.UnlockContent()
	item, err := f.Page().Item(tid.Slot)
	if err != nil {
		return false, fmt.Errorf("%w: %s (%v)", ErrNoTuple, tid, err)
	}
	if tupleXmin(item) != t.ID() || tupleXmax(item) != txn.InvalidXID {
		return false, nil
	}
	if len(item) != TupleHeaderSize+len(data) {
		return false, nil
	}
	t.MarkWriter()
	copy(item[TupleHeaderSize:], data)
	f.MarkDirty()
	return true, nil
}

// Replace is the no-overwrite update: delete the old version, insert the
// new — chained back to the old TID — and return the new TID.
func (r *Relation) Replace(t *txn.Txn, tid TID, data []byte) (TID, error) {
	if err := r.Delete(t, tid); err != nil {
		return InvalidTID, err
	}
	return r.insert(t, data, tid)
}

// Fetch returns a copy of the tuple payload at tid if it is visible to t.
func (r *Relation) Fetch(t *txn.Txn, tid TID) ([]byte, error) {
	return r.FetchSnap(t.Snapshot(), tid)
}

// ViewAny runs use on the payload physically stored at tid regardless of
// visibility, in place under the page's shared content latch, or returns
// ErrNoTuple if the slot is dead or vacant. Index pruning uses it to ask
// "does the entry's target still exist at all" — an in-progress writer's
// version must count as existing even though no snapshot sees it yet. use
// must not keep the slice.
func (r *Relation) ViewAny(tid TID, use func(data []byte)) error {
	return r.view(tid, func([]byte, *buffer.Frame) bool { return true }, use)
}

// FetchAsOf returns the tuple payload at tid as it stood at timestamp ts.
func (r *Relation) FetchAsOf(ts txn.TS, tid TID) ([]byte, error) {
	return r.FetchSnap(txn.SnapshotAt(ts), tid)
}

// FetchSnap returns a copy of the tuple payload at tid if the snapshot sees
// it. Live and historical snapshots take the same path: time travel is just
// a fetch under an older snapshot.
func (r *Relation) FetchSnap(snap txn.Snapshot, tid TID) ([]byte, error) {
	var out []byte
	err := r.ViewSnap(snap, tid, func(data []byte) { out = append([]byte(nil), data...) })
	return out, err
}

// ViewSnap runs use on the payload at tid, in place in the buffer pool and
// under the page's shared content latch, if the snapshot sees the tuple: the
// read path's one copy is whatever use makes. use must not keep the slice,
// and must not call back into this relation's page. A tuple the snapshot
// does not see yields ErrNotVisible itself, unwrapped, and a dead or vacant
// slot ErrNoTuple: an index lookup steps over superseded versions and the
// slots vacuum reclaimed from them all the time. None of these outcomes
// allocates.
func (r *Relation) ViewSnap(snap txn.Snapshot, tid TID, use func(data []byte)) error {
	return r.view(tid, func(item []byte, f *buffer.Frame) bool {
		return r.visibleSnap(snap, item, f, false)
	}, use)
}

// view is the lock-free read path: no relation lock at all, only the
// frame's shared content latch, so readers synchronise with nothing but a
// mutator of the very page they inspect. Visibility checks on this path
// never write hint bits (only exclusive-latch holders may) and resolve
// transaction outcomes through the manager's lock-free table. It runs use on
// the payload at tid, in place under the latch, if vis accepts the tuple;
// use must not keep the slice.
func (r *Relation) view(tid TID, vis func([]byte, *buffer.Frame) bool, use func(data []byte)) error {
	obsFetches.Inc()
	f, err := r.rel.Get(tid.Blk)
	if errors.Is(err, storage.ErrBadBlock) {
		// A TID past the end of the relation names no tuple. Index entries
		// can point there after a crash: page images are logged in fuzzy
		// batches, so an uncommitted writer's index page may be durable when
		// the heap block it had just filled is not. Like every trace of an
		// uncommitted transaction the entry must read as absent, not as an
		// I/O failure.
		return fmt.Errorf("%w: %s (%v)", ErrNoTuple, tid, err)
	}
	if err != nil {
		return err
	}
	defer f.Release()
	rlatch(f)
	defer f.RUnlockContent()
	item, err := f.Page().Item(tid.Slot)
	if err != nil {
		return ErrNoTuple
	}
	if !vis(item, f) {
		return ErrNotVisible
	}
	use(TupleData(item))
	return nil
}

// Scan calls fn for every tuple visible to t, in physical order. fn returns
// false to stop early. The payload slice passed to fn is only valid for the
// duration of the call.
func (r *Relation) Scan(t *txn.Txn, fn func(TID, []byte) (bool, error)) error {
	return r.ScanSnap(t.Snapshot(), fn)
}

// ScanAsOf calls fn for every tuple visible at timestamp ts.
func (r *Relation) ScanAsOf(ts txn.TS, fn func(TID, []byte) (bool, error)) error {
	return r.ScanSnap(txn.SnapshotAt(ts), fn)
}

// ScanSnap calls fn for every tuple the snapshot sees, in physical order.
func (r *Relation) ScanSnap(snap txn.Snapshot, fn func(TID, []byte) (bool, error)) error {
	return r.scan(func(item []byte, f *buffer.Frame) bool {
		return r.visibleSnap(snap, item, f, false)
	}, fn)
}

func (r *Relation) scan(vis func([]byte, *buffer.Frame) bool, fn func(TID, []byte) (bool, error)) error {
	obsScans.Inc()
	n, err := r.NBlocks()
	if err != nil {
		return err
	}
	type hit struct {
		tid  TID
		data []byte
	}
	// Physical-order scans are perfectly predictable: keep a read-ahead
	// window posted to the pool's prefetcher (a no-op without an engine) so
	// the next Get finds its block resident. Windows overlap on purpose —
	// resident blocks are skipped, and a window resident end to end is not
	// even posted — and the post itself never waits for I/O.
	const readAhead = buffer.PrefetchWindow
	for blk := storage.BlockNum(0); blk < n; blk++ {
		if blk%(readAhead/2) == 0 && blk+1 < n {
			r.rel.Prefetch(blk+1, readAhead)
		}
		// Collect the page's visible tuples (copying payloads) under the
		// page's shared content latch — the only lock a snapshot reader
		// takes — then invoke fn with no locks held so callbacks can
		// re-enter the relation freely.
		hits, err := func() ([]hit, error) {
			f, err := r.rel.Get(blk)
			if err != nil {
				return nil, err
			}
			defer f.Release()
			rlatch(f)
			defer f.RUnlockContent()
			p := f.Page()
			if !p.IsInitialized() {
				return nil, nil
			}
			var hits []hit
			for s := 0; s < p.NumSlots(); s++ {
				slot := page.SlotNum(s)
				if p.ItemIsDead(slot) {
					continue
				}
				item, err := p.Item(slot)
				if err != nil {
					return nil, err
				}
				if vis(item, f) {
					hits = append(hits, hit{
						tid:  TID{Blk: blk, Slot: slot},
						data: append([]byte(nil), TupleData(item)...),
					})
				}
			}
			return hits, nil
		}()
		if err != nil {
			return err
		}
		for _, h := range hits {
			keep, err := fn(h.tid, h.data)
			if err != nil {
				return err
			}
			if !keep {
				return nil
			}
		}
	}
	return nil
}

// visibleSnap is the one visibility rule: a historical snapshot resolves
// stamps through commit timestamps, a live snapshot through its in-progress
// set. Everything that reads tuples — fetches, scans, deletes, time travel —
// funnels through here, so "as of" reads are not a separate code path, just
// an older snapshot.
func (r *Relation) visibleSnap(snap txn.Snapshot, item []byte, f *buffer.Frame, hints bool) bool {
	if snap.Historical() {
		return r.visibleAsOf(snap.AsOf, item)
	}
	return r.visible(snap, item, f, hints)
}

// visible implements snapshot visibility. With hints, decided states are
// cached as hint bits on the tuple (the caller must hold the frame's
// exclusive content latch); shared-latch readers pass hints false and
// resolve statuses through the commit log instead — hint bits are a pure
// cache, so skipping the write never changes the verdict.
func (r *Relation) visible(snap txn.Snapshot, item []byte, f *buffer.Frame, hints bool) bool {
	mgr := r.pool.Mgr
	mask := tupleMask(item)
	xmin := tupleXmin(item)

	// Decide xmin.
	switch {
	case mask&hintXminAborted != 0:
		return false
	case mask&hintXminCommitted != 0:
		if !snap.Sees(xmin) {
			return false
		}
	case xmin == snap.Self:
		// our own insert: visible
	default:
		switch mgr.Status(xmin) {
		case txn.Aborted:
			if hints {
				setTupleHint(item, hintXminAborted)
				f.MarkDirty()
			}
			return false
		case txn.InProgress:
			return false
		case txn.Committed:
			if hints {
				setTupleHint(item, hintXminCommitted)
				f.MarkDirty()
			}
			if !snap.Sees(xmin) {
				return false
			}
		}
	}

	// Decide xmax.
	xmax := tupleXmax(item)
	if xmax == txn.InvalidXID {
		return true
	}
	if xmax == snap.Self {
		return false // we deleted it ourselves
	}
	mask = tupleMask(item)
	switch {
	case mask&hintXmaxAborted != 0:
		return true
	case mask&hintXmaxCommitted != 0:
		return !snap.Sees(xmax)
	}
	switch mgr.Status(xmax) {
	case txn.Aborted:
		if hints {
			setTupleHint(item, hintXmaxAborted)
			f.MarkDirty()
		}
		return true
	case txn.InProgress:
		return true // delete not yet committed
	default: // committed
		if hints {
			setTupleHint(item, hintXmaxCommitted)
			f.MarkDirty()
		}
		return !snap.Sees(xmax)
	}
}

// visibleAsOf implements time-travel visibility: the tuple existed at ts if
// its inserter committed at or before ts and its deleter (if any) had not
// yet committed by ts.
func (r *Relation) visibleAsOf(ts txn.TS, item []byte) bool {
	mgr := r.pool.Mgr
	xmin := tupleXmin(item)
	ins, ok := mgr.CommitTS(xmin)
	if !ok || ins > ts {
		return false
	}
	xmax := tupleXmax(item)
	if xmax == txn.InvalidXID {
		return true
	}
	del, ok := mgr.CommitTS(xmax)
	if !ok {
		return true // delete aborted or still in flight: tuple still existed
	}
	return del > ts
}

// VersionStamps calls fn with the commit timestamp of every committed
// transaction that inserted or deleted a tuple in the relation — the set of
// instants at which the relation's visible contents changed, and therefore
// the meaningful time-travel targets.
func (r *Relation) VersionStamps(fn func(txn.TS)) error {
	n, err := r.NBlocks()
	if err != nil {
		return err
	}
	mgr := r.pool.Mgr
	for blk := storage.BlockNum(0); blk < n; blk++ {
		err := func() error {
			f, err := r.rel.Get(blk)
			if err != nil {
				return err
			}
			defer f.Release()
			rlatch(f)
			defer f.RUnlockContent()
			p := f.Page()
			if !p.IsInitialized() {
				return nil
			}
			for s := 0; s < p.NumSlots(); s++ {
				slot := page.SlotNum(s)
				if p.ItemIsDead(slot) {
					continue
				}
				item, err := p.Item(slot)
				if err != nil {
					return err
				}
				if ts, ok := mgr.CommitTS(tupleXmin(item)); ok && ts != txn.InvalidTS {
					fn(ts)
				}
				if xmax := tupleXmax(item); xmax != txn.InvalidXID {
					if ts, ok := mgr.CommitTS(xmax); ok && ts != txn.InvalidTS {
						fn(ts)
					}
				}
			}
			return nil
		}()
		if err != nil {
			return err
		}
	}
	return nil
}

// Vacuum physically removes tuple versions that no current or future reader
// can see, bounded by the live snapshot horizon: it delegates to VacuumBelow
// with the transaction manager's current global xmin, so versions an old
// open snapshot can still reach are never reclaimed out from under it.
func (r *Relation) Vacuum(keepHistory bool) (int, error) {
	return r.VacuumBelow(r.pool.Mgr.GlobalXmin(), keepHistory)
}

// VacuumBelow physically removes tuple versions that no snapshot at or above
// the horizon can see: tuples whose inserter aborted (invisible to everyone,
// always reclaimable), and — when keepHistory is false — tuples whose
// deleter committed below the horizon, so every live snapshot already
// observes the delete. With keepHistory true (the POSTGRES default: keep
// everything for time travel) only aborted debris is removed. Returns the
// number of tuples reclaimed.
//
// The work is proportional to what changed, not to the relation: only blocks
// in the stamped bitmap are visited, because a superseded version is
// reclaimable only where a Delete left a stamp. Aborted inserts leave debris
// no stamp points at, so the whole relation is walked instead — rebuilding
// the bitmap on the way — on the handle's first call and whenever the
// transaction manager's abort count has moved since the last such walk. With
// keepHistory and no abort to chase there is nothing to do at all.
func (r *Relation) VacuumBelow(horizon txn.XID, keepHistory bool) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n, err := r.NBlocks()
	if err != nil {
		return 0, err
	}
	// Read before the walk: an abort that lands while it is under way may
	// leave debris on a block already passed, and must trigger the next one.
	aborts := r.pool.Mgr.AbortCount()
	full := !r.walked || aborts != r.walkedAborts
	var blocks []storage.BlockNum
	switch {
	case full:
		obsVacFullWalks.Inc()
		blocks = make([]storage.BlockNum, n)
		for i := range blocks {
			blocks[i] = storage.BlockNum(i)
		}
	case keepHistory:
		return 0, nil
	default:
		blocks = r.stampedBlocks(n)
	}
	removed := 0
	var reusable []storage.BlockNum
	for _, blk := range blocks {
		n, free, err := r.vacuumBlock(blk, horizon, keepHistory)
		removed += n
		if err != nil {
			return removed, err
		}
		// Remember pages worth refilling (a crude free-space map).
		if free > page.Size/4 {
			reusable = append(reusable, blk)
		}
	}
	if full {
		r.walked, r.walkedAborts = true, aborts
	}
	if removed > 0 {
		obsVersionsReclaimed.Add(int64(removed))
		obsVersionsLive.Add(-int64(removed))
	}
	if len(reusable) > 0 {
		// Merge outside the frame latches; placeMu is a leaf lock.
		r.placeMu.Lock()
		have := make(map[storage.BlockNum]bool, len(r.freeBlocks))
		for _, b := range r.freeBlocks {
			have[b] = true
		}
		for _, b := range reusable {
			if !have[b] {
				r.freeBlocks = append(r.freeBlocks, b)
			}
		}
		r.placeMu.Unlock()
	}
	return removed, nil
}

// vacuumBlock reclaims what it can on one block and leaves the block's
// stamped bit saying whether a later round could reclaim
// more there: set while some surviving version carries the stamp of a deleter
// that committed (at or above this horizon, or history is being kept) or is
// still in flight; clear otherwise — in particular when the only stamps left
// belong to aborted deleters, which will never become reclaimable. It returns
// how many versions it removed (also on error) and the page's free space if
// it compacted the page, else 0. The caller holds the relation lock
// exclusive.
func (r *Relation) vacuumBlock(blk storage.BlockNum, horizon txn.XID, keepHistory bool) (removed, free int, err error) {
	obsVacBlocksVisited.Inc()
	mgr := r.pool.Mgr
	f, err := r.rel.Get(blk)
	if err != nil {
		return 0, 0, err
	}
	defer f.Release()
	stamped := false
	defer func() {
		if err == nil {
			r.setStamped(blk, stamped)
		}
	}()
	f.LockContent()
	defer f.UnlockContent()
	p := f.Page()
	if !p.IsInitialized() {
		return 0, 0, nil
	}
	for s := 0; s < p.NumSlots(); s++ {
		slot := page.SlotNum(s)
		if p.ItemIsDead(slot) {
			continue
		}
		item, err := p.Item(slot)
		if err != nil {
			return removed, 0, err
		}
		dead := mgr.Status(tupleXmin(item)) == txn.Aborted
		if xmax := tupleXmax(item); !dead && xmax != txn.InvalidXID {
			switch st := mgr.Status(xmax); {
			case st == txn.Committed && !keepHistory && xmax < horizon:
				dead = true
			case st != txn.Aborted:
				stamped = true
			}
		}
		if dead {
			if err := p.DeleteItem(slot); err != nil {
				return removed, 0, err
			}
			removed++
		}
	}
	if removed > 0 {
		free = p.Compact()
		f.MarkDirty()
	}
	return removed, free, nil
}

// Drop removes the relation: buffered pages are discarded and the underlying
// storage unlinked.
func (r *Relation) Drop() error { return r.pool.Buf.Unlink(r.rel.SM(), r.rel.Name()) }
