package btree

import (
	"encoding/binary"
	"fmt"

	"postlob/internal/storage"
)

// cursorDups is how many values one key can carry before a cursor's result
// spills from its fixed array to a heap slice (kept for reuse). A live
// f-chunk key has one or two entries — the visible version and the one it
// superseded — and longer runs come only from history kept in place.
const cursorDups = 8

// Cursor is one reader's position in a tree's leaf chain: the f-chunk read
// path's answer to §9.2's per-chunk index traversal. A sequential reader
// asks for key k, then k+1, then k+2; only the first request descends from
// the root, and every later one re-pins the leaf the previous one stopped in
// and steps right from there. A reader that knows the whole span it wants
// asks for it at once (Run) and walks the leaves once for all of its keys.
//
// The saved leaf is trusted only while the tree's generation is unchanged:
// any Insert, split or deletion since the cursor saved it sends the next
// request back through a descent. Between calls the cursor holds no frame
// pin and no lock, so the reader's own writes and concurrent prunes never
// wait on it. Within the saved leaf the cursor finds its place by key, not by
// slot, so a page image installed by replication replay (which bypasses the
// generation) cannot make it skip an entry: leaves never merge, and a split
// only moves entries to the right.
//
// A Cursor is not safe for concurrent use.
type Cursor struct {
	t *Tree

	// The saved position: while valid and t.gen == gen, every entry whose
	// key is >= next lies in leaf blk or to its right. (valid sits beside
	// blk, in what would be padding: every f-chunk handle embeds a Cursor.)
	gen   uint64
	blk   storage.BlockNum
	valid bool
	next  uint64

	dups  [cursorDups]uint64
	spill []uint64
}

// Cursor returns a cursor on t. It holds nothing until its first request.
func (t *Tree) Cursor() Cursor { return Cursor{t: t} }

// Entry is one index entry: a key and one value stored under it.
type Entry struct{ Key, Val uint64 }

// Lookup returns the values stored under key in ascending order, like
// Tree.Lookup, and leaves the cursor just past them. When key is the one
// after the cursor's previous request and the tree has not changed since,
// the search starts from the saved leaf instead of the root. The returned
// slice is only valid until the cursor's next call.
func (c *Cursor) Lookup(key uint64) ([]uint64, error) {
	vals := c.dups[:0]
	if c.spill != nil {
		vals = c.spill[:0]
	}
	err := c.walk(key, key, func(_, v uint64) { vals = append(vals, v) })
	if err != nil {
		return nil, err
	}
	if cap(vals) > len(c.dups) {
		c.spill = vals
	}
	return vals, nil
}

// Run appends every entry whose key lies in [lo, hi] to dst in ascending
// (key, value) order, in one walk of the leaf chain, and leaves the cursor
// at hi+1. Like Lookup it starts from the saved leaf when lo is the
// cursor's next key and the tree is unchanged, and it holds no pin and no
// lock once it returns: the entries are a copy, so a caller may prune, and
// so take the tree's writer lock, while it works through them. An empty
// range (hi < lo) appends nothing and leaves the cursor where it was.
func (c *Cursor) Run(lo, hi uint64, dst []Entry) ([]Entry, error) {
	if hi < lo {
		return dst, nil
	}
	err := c.walk(lo, hi, func(k, v uint64) { dst = append(dst, Entry{k, v}) })
	return dst, err
}

// walk calls emit on every entry whose key lies in [lo, hi], in ascending
// order, and leaves the cursor at hi+1.
func (c *Cursor) walk(lo, hi uint64, emit func(key, val uint64)) error {
	t := c.t
	t.mu.RLock()
	defer t.mu.RUnlock()
	gen := t.gen.Load()
	blk := c.blk
	if !c.valid || c.gen != gen || lo != c.next {
		var err error
		if blk, err = t.descendToLeaf(lo, 0); err != nil {
			c.valid = false
			return err
		}
	}
	blk, err := c.collect(blk, lo, hi, emit)
	if err != nil {
		c.valid = false
		return err
	}
	// hi+1 wraps at the top of the key space; a wrapped position would
	// claim every entry lies right of blk, so drop it instead.
	c.valid, c.gen, c.blk, c.next = hi != ^uint64(0), gen, blk, hi+1
	return nil
}

// collect calls emit on the entries whose key lies in [lo, hi], starting the
// search in leaf blk and walking right siblings, and returns the leaf it
// stopped in: the one holding the first entry past hi, or the last leaf. The
// caller holds t.mu shared.
func (c *Cursor) collect(blk storage.BlockNum, lo, hi uint64, emit func(key, val uint64)) (storage.BlockNum, error) {
	t := c.t
	for {
		f, err := t.getBlock(blk)
		if err != nil {
			return blk, err
		}
		p := f.Page()
		if binary.LittleEndian.Uint16(p[0:]) != nodeMagic || !nodeIsLeaf(p) {
			f.Release()
			return blk, fmt.Errorf("%w: cursor block %d is not a leaf", ErrCorrupt, blk)
		}
		n := nodeCount(p)
		i := nodeSearch(p, lo, 0)
		for ; i < n; i++ {
			k, v, _ := nodeEntry(p, i)
			if k > hi {
				break
			}
			emit(k, v)
		}
		right := nodeRight(p)
		f.Release()
		if i < n || right == noSibling {
			return blk, nil
		}
		blk = right
	}
}
