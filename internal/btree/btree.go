// Package btree implements the disk-resident B+tree access method. The heap
// stores tuples wherever there is room; secondary indexes map keys to TIDs.
// The f-chunk large-object implementation keeps a B-tree on chunk sequence
// numbers ("the f-chunk implementation maintains a secondary btree index on
// the data blocks, and so must traverse the index any time a seek is done",
// §9.2), and the v-segment implementation keeps one on segment locations.
//
// Keys and values are uint64; callers encode composite keys themselves. The
// tree supports duplicate keys by treating the (key, value) pair as the full
// unique key everywhere, including internal separators — the same device
// modern POSTGRES uses. Versioned heap tuples therefore index cleanly: each
// tuple version gets its own (key, TID) entry and visibility is resolved at
// the heap.
//
// Deletion removes entries without rebalancing; pages may underflow but
// never violate ordering. For the append-mostly large-object workloads this
// matches the original system's behaviour well.
package btree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"postlob/internal/buffer"
	"postlob/internal/obs"
	"postlob/internal/page"
	"postlob/internal/storage"
	"postlob/internal/vclock"
)

// Node layout (raw bytes on a page.Size block):
//
//	0..1   magic
//	2..3   flags (leaf bit)
//	4..5   entry count
//	6..7   reserved
//	8..11  right sibling block (noSibling if none)
//	12..15 write-back checksum (valid when the flags checksum bit is set)
//	16..   entries
//
// Leaf entry:      key uint64, val uint64            (16 bytes)
// Internal entry:  key uint64, val uint64, child u32 (20 bytes)
//
// Block 0 is the tree's metapage:
//
//	0..3   metaMagic
//	4..7   root block
//	8..11  height (1 = root is a leaf)
//	12..19 total live entries
//	20..27 write-back checksum (csMarker + CRC), absent on legacy pages
const (
	nodeMagic  = 0xB7EE
	metaMagic  = 0xB7EEB001
	flagLeaf   = 1
	flagCsum   = 2 // node carries a write-back checksum at bytes 12..15
	nodeHdr    = 16
	leafEntry  = 16
	innerEntry = 20
	noSibling  = ^storage.BlockNum(0)

	// LeafCapacity and InnerCapacity are exported for tests and for the
	// benchmark harness's storage accounting.
	LeafCapacity  = (page.Size - nodeHdr) / leafEntry
	InnerCapacity = (page.Size - nodeHdr) / innerEntry
)

// nodeChecksummer stamps and verifies write-back checksums over the raw
// node layout: nodes carry a CRC at bytes 12..15 gated by a flag bit, the
// metapage carries csMarker + CRC at bytes 20..27. Either way the CRC is
// computed with its own slot zeroed, and images without the marker (blocks
// written before checksumming, or pages torn inside the slot) fall back to
// structural validation. A stamped image whose CRC mismatches is a torn or
// corrupt block and is rejected before the tree parses it.
type nodeChecksummer struct{}

const csMarker = 0xB7EEC5C5

func (nodeChecksummer) Stamp(img []byte) {
	if binary.LittleEndian.Uint32(img[0:]) == metaMagic {
		binary.LittleEndian.PutUint32(img[20:], csMarker)
		binary.LittleEndian.PutUint32(img[24:], 0)
		binary.LittleEndian.PutUint32(img[24:], crc32.ChecksumIEEE(img))
		return
	}
	if binary.LittleEndian.Uint16(img[0:]) != nodeMagic {
		return // an unformatted page; nowhere safe to stamp
	}
	flags := binary.LittleEndian.Uint16(img[2:])
	binary.LittleEndian.PutUint16(img[2:], flags|flagCsum)
	binary.LittleEndian.PutUint32(img[12:], 0)
	binary.LittleEndian.PutUint32(img[12:], crc32.ChecksumIEEE(img))
}

func (nodeChecksummer) Verify(img []byte) error {
	if binary.LittleEndian.Uint32(img[0:]) == metaMagic {
		if binary.LittleEndian.Uint32(img[20:]) != csMarker {
			return nil
		}
		want := binary.LittleEndian.Uint32(img[24:])
		binary.LittleEndian.PutUint32(img[24:], 0)
		got := crc32.ChecksumIEEE(img)
		binary.LittleEndian.PutUint32(img[24:], want)
		if got != want {
			return ErrChecksum
		}
		return nil
	}
	if binary.LittleEndian.Uint16(img[0:]) != nodeMagic {
		return nil
	}
	if binary.LittleEndian.Uint16(img[2:])&flagCsum == 0 {
		return nil
	}
	want := binary.LittleEndian.Uint32(img[12:])
	binary.LittleEndian.PutUint32(img[12:], 0)
	got := crc32.ChecksumIEEE(img)
	binary.LittleEndian.PutUint32(img[12:], want)
	if got != want {
		return ErrChecksum
	}
	return nil
}

// Errors returned by the tree.
var (
	ErrChecksum = errors.New("btree: node checksum mismatch (torn or corrupt block)")
	ErrCorrupt  = errors.New("btree: corrupt node")
	ErrNotFound = errors.New("btree: entry not found")
)

// Config tunes a tree.
type Config struct {
	// Clock and SearchCPU charge a CPU cost per node visited during
	// descent, modelling the index-traversal overhead the paper measures on
	// random f-chunk access. Zero disables charging.
	Clock     *vclock.Clock
	SearchCPU time.Duration
}

// Tree is an open B+tree.
type Tree struct {
	buf *buffer.Pool
	rel *buffer.Rel // the buffer pool's descriptor: name, manager, pages
	cfg Config

	// mu is held shared by read-only descents and scans — node pages only
	// change under the exclusive side, so readers never see a node
	// mid-modification — and exclusive by Insert/Delete. Writers
	// additionally take each frame's content latch around page-byte
	// mutation so the buffer pool can write back node pages concurrently
	// without tearing them.
	mu sync.RWMutex

	// gen counts structural changes: every Insert (splits included) and every
	// entry deletion adds one under mu's exclusive side. A Cursor trusts the
	// leaf it saved only while gen is unchanged.
	gen atomic.Uint64

	// metaOK says the metapage has been read and carries the tree's magic.
	// Until then every Open checks it, so a corrupt tree stays an error for
	// each opener rather than only for the one that installed the handle.
	metaOK atomic.Bool
}

// Create makes a new empty tree in its own relation and installs its handle
// on the relation's descriptor, where every later Open finds it.
func Create(buf *buffer.Pool, sm storage.ID, name storage.RelName, cfg Config) (*Tree, error) {
	mgr, err := buf.Switch().Get(sm)
	if err != nil {
		return nil, err
	}
	if err := mgr.Create(name); err != nil {
		return nil, err
	}
	t, err := install(buf, buf.Rel(sm, name), cfg)
	if err != nil {
		return nil, err
	}
	meta, blk, err := t.rel.NewBlock()
	if err != nil {
		return nil, err
	}
	if blk != 0 {
		meta.Release()
		return nil, fmt.Errorf("btree: metapage allocated at block %d", blk)
	}
	rootFrame, rootBlk, err := t.rel.NewBlock()
	if err != nil {
		meta.Release()
		return nil, err
	}
	mutate(rootFrame, func(p []byte) { initNode(p, true) })
	rootFrame.Release()

	mutate(meta, func(m []byte) {
		binary.LittleEndian.PutUint32(m[0:], metaMagic)
		binary.LittleEndian.PutUint32(m[4:], rootBlk)
		binary.LittleEndian.PutUint32(m[8:], 1)
		binary.LittleEndian.PutUint64(m[12:], 0)
	})
	meta.Release()
	t.metaOK.Store(true)
	return t, nil
}

// Open returns the handle on an existing tree: the one installed on the
// relation's descriptor, which every opener shares — Tree.mu is the tree's
// only reader/writer exclusion, so private handles on one relation would
// race read descents against structural changes. The Config of the opener
// that installs the handle holds for the handle's life. Until one opener
// has found the metapage sound, each checks it, so a corrupt tree fails
// every Open.
func Open(buf *buffer.Pool, sm storage.ID, name storage.RelName, cfg Config) (*Tree, error) {
	rel := buf.Rel(sm, name)
	if !rel.Installed() {
		mgr, err := buf.Switch().Get(sm)
		if err != nil {
			return nil, err
		}
		if !mgr.Exists(name) {
			return nil, fmt.Errorf("%w: %s", storage.ErrNoRelation, name)
		}
	}
	t, err := install(buf, rel, cfg)
	if err != nil || t.metaOK.Load() {
		return t, err
	}
	f, err := t.getBlock(0)
	if err != nil {
		return nil, err
	}
	defer f.Release()
	if binary.LittleEndian.Uint32(f.Page()[0:]) != metaMagic {
		return nil, fmt.Errorf("%w: bad metapage in %s", ErrCorrupt, name)
	}
	t.metaOK.Store(true)
	return t, nil
}

// install returns rel's tree handle, installing a new one with the node
// checksummer if it has none.
func install(buf *buffer.Pool, rel *buffer.Rel, cfg Config) (*Tree, error) {
	return buffer.Handle(rel, nodeChecksummer{}, func(rel *buffer.Rel) *Tree {
		return &Tree{buf: buf, rel: rel, cfg: cfg}
	})
}

// Name returns the tree's relation name.
func (t *Tree) Name() storage.RelName { return t.rel.Name() }

// mutate runs fn on f's page under the frame's exclusive content latch and
// marks the frame dirty: the write-a-node idiom for every structural change.
func mutate(f *buffer.Frame, fn func(p []byte)) {
	f.LockContent()
	fn(f.Page())
	f.MarkDirty()
	f.UnlockContent()
}

// Len returns the number of live entries.
func (t *Tree) Len() (uint64, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.lenLocked()
}

// Height returns the number of node levels (1 = single leaf).
func (t *Tree) Height() (int, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	f, err := t.getBlock(0)
	if err != nil {
		return 0, err
	}
	defer f.Release()
	return int(binary.LittleEndian.Uint32(f.Page()[8:])), nil
}

// Size returns the tree's storage footprint in bytes.
func (t *Tree) Size() (int64, error) {
	n, err := t.rel.NBlocks()
	if err != nil {
		return 0, err
	}
	return int64(n) * page.Size, nil
}

// Drop discards the tree and its storage (buffer.Pool.Unlink); the handle
// goes with the relation's descriptor.
func (t *Tree) Drop() error { return t.buf.Unlink(t.rel.SM(), t.rel.Name()) }

// --- node accessors ---------------------------------------------------------

func initNode(p []byte, leaf bool) {
	for i := 0; i < nodeHdr; i++ {
		p[i] = 0
	}
	binary.LittleEndian.PutUint16(p[0:], nodeMagic)
	var flags uint16
	if leaf {
		flags = flagLeaf
	}
	binary.LittleEndian.PutUint16(p[2:], flags)
	binary.LittleEndian.PutUint32(p[8:], uint32(noSibling))
}

func nodeIsLeaf(p []byte) bool { return binary.LittleEndian.Uint16(p[2:])&flagLeaf != 0 }
func nodeCount(p []byte) int   { return int(binary.LittleEndian.Uint16(p[4:])) }
func nodeRight(p []byte) storage.BlockNum {
	return storage.BlockNum(binary.LittleEndian.Uint32(p[8:]))
}
func setNodeCount(p []byte, n int)                { binary.LittleEndian.PutUint16(p[4:], uint16(n)) }
func setNodeRight(p []byte, blk storage.BlockNum) { binary.LittleEndian.PutUint32(p[8:], uint32(blk)) }
func nodeEntrySize(p []byte) int {
	if nodeIsLeaf(p) {
		return leafEntry
	}
	return innerEntry
}
func nodeCapacity(p []byte) int {
	if nodeIsLeaf(p) {
		return LeafCapacity
	}
	return InnerCapacity
}

// entry reads entry i: (key, val) and, for internal nodes, child.
func nodeEntry(p []byte, i int) (key, val uint64, child storage.BlockNum) {
	off := nodeHdr + i*nodeEntrySize(p)
	key = binary.LittleEndian.Uint64(p[off:])
	val = binary.LittleEndian.Uint64(p[off+8:])
	if !nodeIsLeaf(p) {
		child = storage.BlockNum(binary.LittleEndian.Uint32(p[off+16:]))
	}
	return
}

func putNodeEntry(p []byte, i int, key, val uint64, child storage.BlockNum) {
	off := nodeHdr + i*nodeEntrySize(p)
	binary.LittleEndian.PutUint64(p[off:], key)
	binary.LittleEndian.PutUint64(p[off+8:], val)
	if !nodeIsLeaf(p) {
		binary.LittleEndian.PutUint32(p[off+16:], uint32(child))
	}
}

// insertAt shifts entries right and writes a new entry at index i.
func nodeInsertAt(p []byte, i int, key, val uint64, child storage.BlockNum) {
	es := nodeEntrySize(p)
	n := nodeCount(p)
	start := nodeHdr + i*es
	copy(p[start+es:nodeHdr+(n+1)*es], p[start:nodeHdr+n*es])
	putNodeEntry(p, i, key, val, child)
	setNodeCount(p, n+1)
}

// removeAt deletes entry i, shifting the tail left.
func nodeRemoveAt(p []byte, i int) {
	es := nodeEntrySize(p)
	n := nodeCount(p)
	start := nodeHdr + i*es
	copy(p[start:], p[start+es:nodeHdr+n*es])
	setNodeCount(p, n-1)
}

// search finds the first index whose (key,val) >= (k,v).
func nodeSearch(p []byte, k, v uint64) int {
	lo, hi := 0, nodeCount(p)
	for lo < hi {
		mid := (lo + hi) / 2
		mk, mv, _ := nodeEntry(p, mid)
		if mk < k || (mk == k && mv < v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// --- tree operations ----------------------------------------------------------

func (t *Tree) getBlock(blk storage.BlockNum) (*buffer.Frame, error) {
	t.cfg.Clock.Advance(t.cfg.SearchCPU)
	return t.rel.Get(blk)
}

// Tree metrics, summed across all trees; registered once at package init.
// Every operation that walks the tree (Insert, Delete, Lookup, Range, Floor)
// reads the root exactly once, so root() is the natural descent counter.
var (
	obsDescents = obs.NewCounter("btree.descents")
	obsSplits   = obs.NewCounter("btree.splits")
	obsScans    = obs.NewCounter("btree.scans")
)

func (t *Tree) root() (storage.BlockNum, error) {
	obsDescents.Inc()
	f, err := t.getBlock(0)
	if err != nil {
		return 0, err
	}
	defer f.Release()
	return storage.BlockNum(binary.LittleEndian.Uint32(f.Page()[4:])), nil
}

func (t *Tree) bumpLen(delta int64) error {
	f, err := t.getBlock(0)
	if err != nil {
		return err
	}
	defer f.Release()
	mutate(f, func(m []byte) {
		n := binary.LittleEndian.Uint64(m[12:])
		binary.LittleEndian.PutUint64(m[12:], uint64(int64(n)+delta))
	})
	return nil
}

// Insert adds the entry (key, val). Duplicate (key, val) pairs are allowed
// and stored separately.
func (t *Tree) Insert(key, val uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gen.Add(1)
	root, err := t.root()
	if err != nil {
		return err
	}
	sep, newChild, err := t.insertInto(root, key, val)
	if err != nil {
		return err
	}
	if newChild != noSibling {
		// Root split: build a new root with two children. The leftmost
		// entry of every internal node acts as -infinity (key 0,0) so that
		// keys smaller than any current separator always route left; this
		// keeps separators correct when new smallest keys arrive later.
		f, blk, err := t.rel.NewBlock()
		if err != nil {
			return err
		}
		mutate(f, func(p []byte) {
			initNode(p, false)
			nodeInsertAt(p, 0, 0, 0, root)
			nodeInsertAt(p, 1, sep.key, sep.val, newChild)
		})
		f.Release()
		meta, err := t.getBlock(0)
		if err != nil {
			return err
		}
		mutate(meta, func(m []byte) {
			binary.LittleEndian.PutUint32(m[4:], blk)
			h := binary.LittleEndian.Uint32(m[8:])
			binary.LittleEndian.PutUint32(m[8:], h+1)
		})
		meta.Release()
	}
	return t.bumpLen(1)
}

type separator struct {
	key, val uint64
}

// insertInto descends from blk inserting (key,val); when the child splits it
// returns the separator and new right sibling for the caller to install.
func (t *Tree) insertInto(blk storage.BlockNum, key, val uint64) (separator, storage.BlockNum, error) {
	f, err := t.getBlock(blk)
	if err != nil {
		return separator{}, noSibling, err
	}
	p := f.Page()
	if binary.LittleEndian.Uint16(p[0:]) != nodeMagic {
		f.Release()
		return separator{}, noSibling, fmt.Errorf("%w: block %d", ErrCorrupt, blk)
	}

	if nodeIsLeaf(p) {
		i := nodeSearch(p, key, val)
		if nodeCount(p) < nodeCapacity(p) {
			mutate(f, func(p []byte) { nodeInsertAt(p, i, key, val, 0) })
			f.Release()
			return separator{}, noSibling, nil
		}
		// Split the leaf, then insert into the proper half.
		sep, rightBlk, err := t.splitNode(f, blk)
		if err != nil {
			f.Release()
			return separator{}, noSibling, err
		}
		target := f
		if key > sep.key || (key == sep.key && val >= sep.val) {
			f.Release()
			target, err = t.getBlock(rightBlk)
			if err != nil {
				return separator{}, noSibling, err
			}
		}
		mutate(target, func(tp []byte) {
			nodeInsertAt(tp, nodeSearch(tp, key, val), key, val, 0)
		})
		target.Release()
		return sep, rightBlk, nil
	}

	// Internal: pick the child to descend into — the last entry whose
	// separator is <= (key,val); entry 0 catches everything below.
	i := nodeSearch(p, key, val)
	if i >= nodeCount(p) {
		i = nodeCount(p) - 1
	} else if ek, ev, _ := nodeEntry(p, i); ek != key || ev != val {
		if i > 0 {
			i--
		}
	}
	_, _, child := nodeEntry(p, i)
	f.Release()

	sep, newChild, err := t.insertInto(child, key, val)
	if err != nil || newChild == noSibling {
		return separator{}, noSibling, err
	}

	// Install the separator for the split child.
	f, err = t.getBlock(blk)
	if err != nil {
		return separator{}, noSibling, err
	}
	p = f.Page()
	if nodeCount(p) < nodeCapacity(p) {
		mutate(f, func(p []byte) {
			nodeInsertAt(p, nodeSearch(p, sep.key, sep.val), sep.key, sep.val, newChild)
		})
		f.Release()
		return separator{}, noSibling, nil
	}
	upSep, rightBlk, err := t.splitNode(f, blk)
	if err != nil {
		f.Release()
		return separator{}, noSibling, err
	}
	target := f
	if sep.key > upSep.key || (sep.key == upSep.key && sep.val >= upSep.val) {
		f.Release()
		target, err = t.getBlock(rightBlk)
		if err != nil {
			return separator{}, noSibling, err
		}
	}
	mutate(target, func(tp []byte) {
		nodeInsertAt(tp, nodeSearch(tp, sep.key, sep.val), sep.key, sep.val, newChild)
	})
	target.Release()
	return upSep, rightBlk, nil
}

// splitNode moves the upper half of f's entries to a fresh right sibling and
// returns the first (key,val) of the new node as separator. The caller keeps
// f pinned.
func (t *Tree) splitNode(f *buffer.Frame, blk storage.BlockNum) (separator, storage.BlockNum, error) {
	obsSplits.Inc()
	p := f.Page()
	rf, rightBlk, err := t.rel.NewBlock()
	if err != nil {
		return separator{}, noSibling, err
	}

	n := nodeCount(p)
	mid := n / 2
	es := nodeEntrySize(p)
	moved := n - mid
	var sk, sv uint64
	// One content latch at a time: build the right sibling (reading the
	// left node is safe — this tree's writers are excluded by t.mu and the
	// pool only ever reads pages), then shrink the left node.
	mutate(rf, func(rp []byte) {
		initNode(rp, nodeIsLeaf(p))
		copy(rp[nodeHdr:nodeHdr+moved*es], p[nodeHdr+mid*es:nodeHdr+n*es])
		setNodeCount(rp, moved)
		setNodeRight(rp, nodeRight(p))
		sk, sv, _ = nodeEntry(rp, 0)
		if !nodeIsLeaf(p) {
			// The parent remembers (sk, sv) as the right node's separator;
			// inside the right node the leftmost entry now acts as
			// -infinity, matching the convention used at root creation.
			_, _, child := nodeEntry(rp, 0)
			putNodeEntry(rp, 0, 0, 0, child)
		}
	})
	rf.Release()
	mutate(f, func(p []byte) {
		setNodeCount(p, mid)
		setNodeRight(p, rightBlk)
	})
	return separator{key: sk, val: sv}, rightBlk, nil
}

// descendToLeaf finds the leaf that would contain (key,val).
func (t *Tree) descendToLeaf(key, val uint64) (storage.BlockNum, error) {
	blk, err := t.root()
	if err != nil {
		return 0, err
	}
	for {
		f, err := t.getBlock(blk)
		if err != nil {
			return 0, err
		}
		p := f.Page()
		if binary.LittleEndian.Uint16(p[0:]) != nodeMagic {
			f.Release()
			return 0, fmt.Errorf("%w: block %d", ErrCorrupt, blk)
		}
		if nodeIsLeaf(p) {
			f.Release()
			return blk, nil
		}
		i := nodeSearch(p, key, val)
		if i >= nodeCount(p) {
			i = nodeCount(p) - 1
		} else if ek, ev, _ := nodeEntry(p, i); ek != key || ev != val {
			if i > 0 {
				i--
			}
		}
		_, _, child := nodeEntry(p, i)
		f.Release()
		blk = child
	}
}

// Delete removes the entry exactly matching (key, val).
func (t *Tree) Delete(key, val uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.deleteLocked(key, val)
}

// DeleteIf removes the entry (key, val) only if stale() reports true. The
// callback runs under the tree's writer lock, so the check and the delete
// are one atomic unit with respect to every Insert on this tree. Index
// pruning needs that atomicity: a value encoding a heap TID can be recycled
// — the dead tuple's slot reused for a fresh version of the same key, and
// the identical (key, val) pair re-inserted. A prune decision made from a
// pre-recycle observation must re-verify before deleting, or a delayed
// delete removes the live record's only index entry. stale must not touch
// this tree (the lock is not reentrant).
func (t *Tree) DeleteIf(key, val uint64, stale func() (bool, error)) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	ok, err := stale()
	if err != nil {
		return err
	}
	if !ok {
		return nil
	}
	return t.deleteLocked(key, val)
}

func (t *Tree) deleteLocked(key, val uint64) error {
	t.gen.Add(1)
	blk, err := t.descendToLeaf(key, val)
	if err != nil {
		return err
	}
	for blk != noSibling {
		f, err := t.getBlock(blk)
		if err != nil {
			return err
		}
		p := f.Page()
		i := nodeSearch(p, key, val)
		if i < nodeCount(p) {
			ek, ev, _ := nodeEntry(p, i)
			if ek == key && ev == val {
				mutate(f, func(p []byte) { nodeRemoveAt(p, i) })
				f.Release()
				return t.bumpLen(-1)
			}
			f.Release()
			return fmt.Errorf("%w: (%d,%d)", ErrNotFound, key, val)
		}
		next := nodeRight(p)
		f.Release()
		blk = next
	}
	return fmt.Errorf("%w: (%d,%d)", ErrNotFound, key, val)
}

// Lookup returns the values stored under key, in insertion-sorted order.
func (t *Tree) Lookup(key uint64) ([]uint64, error) {
	var vals []uint64
	err := t.Range(key, key, func(k, v uint64) (bool, error) {
		vals = append(vals, v)
		return true, nil
	})
	return vals, err
}

// Range calls fn for every entry with lo <= key <= hi in ascending (key,val)
// order; fn returns false to stop.
func (t *Tree) Range(lo, hi uint64, fn func(key, val uint64) (bool, error)) error {
	obsScans.Inc()
	t.mu.RLock()
	defer t.mu.RUnlock()
	blk, err := t.descendToLeaf(lo, 0)
	if err != nil {
		return err
	}
	for blk != noSibling {
		f, err := t.getBlock(blk)
		if err != nil {
			return err
		}
		p := f.Page()
		n := nodeCount(p)
		for i := nodeSearch(p, lo, 0); i < n; i++ {
			k, v, _ := nodeEntry(p, i)
			if k > hi {
				f.Release()
				return nil
			}
			keep, err := fn(k, v)
			if err != nil {
				f.Release()
				return err
			}
			if !keep {
				f.Release()
				return nil
			}
		}
		next := nodeRight(p)
		f.Release()
		blk = next
	}
	return nil
}

// Floor returns the largest entry with key <= k, mirroring the "find the
// segment covering this byte offset" lookup v-segment needs.
func (t *Tree) Floor(k uint64) (key, val uint64, ok bool, err error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	blk, err := t.descendToLeaf(k, ^uint64(0))
	if err != nil {
		return 0, 0, false, err
	}
	f, err := t.getBlock(blk)
	if err != nil {
		return 0, 0, false, err
	}
	p := f.Page()
	i := nodeSearch(p, k, ^uint64(0))
	if i < nodeCount(p) {
		if ek, ev, _ := nodeEntry(p, i); ek <= k {
			f.Release()
			return ek, ev, true, nil
		}
	}
	if i > 0 {
		ek, ev, _ := nodeEntry(p, i-1)
		f.Release()
		return ek, ev, true, nil
	}
	f.Release()
	// The target may live in a left sibling; a full descent with val 0
	// followed by no result means no entry <= k exists anywhere (leaves to
	// the left only hold smaller keys — if this leaf's first entry is > k,
	// check whether any left neighbour exists by scanning from the start).
	var found bool
	var fk, fv uint64
	err = t.rangeLockedAll(func(key, val uint64) (bool, error) {
		if key > k {
			return false, nil
		}
		fk, fv, found = key, val, true
		return true, nil
	})
	return fk, fv, found, err
}

// rangeLockedAll iterates every entry; caller holds t.mu.
func (t *Tree) rangeLockedAll(fn func(key, val uint64) (bool, error)) error {
	obsScans.Inc()
	blk, err := t.descendToLeaf(0, 0)
	if err != nil {
		return err
	}
	for blk != noSibling {
		f, err := t.getBlock(blk)
		if err != nil {
			return err
		}
		p := f.Page()
		for i := 0; i < nodeCount(p); i++ {
			k, v, _ := nodeEntry(p, i)
			keep, err := fn(k, v)
			if err != nil {
				f.Release()
				return err
			}
			if !keep {
				f.Release()
				return nil
			}
		}
		next := nodeRight(p)
		f.Release()
		blk = next
	}
	return nil
}

// Check walks the tree verifying ordering and sibling invariants; for tests.
func (t *Tree) Check() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var prevK, prevV uint64
	first := true
	var count uint64
	err := t.rangeLockedAll(func(k, v uint64) (bool, error) {
		if !first && (k < prevK || (k == prevK && v < prevV)) {
			return false, fmt.Errorf("%w: order violation (%d,%d) after (%d,%d)", ErrCorrupt, k, v, prevK, prevV)
		}
		first = false
		prevK, prevV = k, v
		count++
		return true, nil
	})
	if err != nil {
		return err
	}
	n, err := t.lenLocked()
	if err != nil {
		return err
	}
	if count != n {
		return fmt.Errorf("%w: meta count %d, walked %d", ErrCorrupt, n, count)
	}
	return nil
}

func (t *Tree) lenLocked() (uint64, error) {
	f, err := t.getBlock(0)
	if err != nil {
		return 0, err
	}
	defer f.Release()
	return binary.LittleEndian.Uint64(f.Page()[12:]), nil
}
