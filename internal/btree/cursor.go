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
// and steps right from there.
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
	// key is >= next lies in leaf blk or to its right.
	valid bool
	gen   uint64
	blk   storage.BlockNum
	next  uint64

	dups  [cursorDups]uint64
	spill []uint64
}

// Cursor returns a cursor on t. It holds nothing until its first Lookup.
func (t *Tree) Cursor() Cursor { return Cursor{t: t} }

// Lookup returns the values stored under key in ascending order, like
// Tree.Lookup, and leaves the cursor just past them. When key is the one
// after the cursor's previous request and the tree has not changed since,
// the search starts from the saved leaf instead of the root. The returned
// slice is only valid until the cursor's next call.
func (c *Cursor) Lookup(key uint64) ([]uint64, error) {
	t := c.t
	t.mu.RLock()
	defer t.mu.RUnlock()
	gen := t.gen.Load()
	blk := c.blk
	if !c.valid || c.gen != gen || key != c.next {
		var err error
		if blk, err = t.descendToLeaf(key, 0); err != nil {
			c.valid = false
			return nil, err
		}
	}
	vals := c.dups[:0]
	if c.spill != nil {
		vals = c.spill[:0]
	}
	var err error
	blk, vals, err = c.collect(blk, key, vals)
	if err != nil {
		c.valid = false
		return nil, err
	}
	if cap(vals) > len(c.dups) {
		c.spill = vals
	}
	// key+1 wraps at the top of the key space; a wrapped position would
	// claim every entry lies right of blk, so drop it instead.
	c.valid, c.gen, c.blk, c.next = key != ^uint64(0), gen, blk, key+1
	return vals, nil
}

// collect appends the values stored under key to vals, starting the search
// in leaf blk and walking right siblings, and returns the leaf it stopped in:
// the one holding the first entry past key, or the last leaf. The caller
// holds t.mu shared.
func (c *Cursor) collect(blk storage.BlockNum, key uint64, vals []uint64) (storage.BlockNum, []uint64, error) {
	t := c.t
	for {
		f, err := t.getBlock(blk)
		if err != nil {
			return blk, vals, err
		}
		p := f.Page()
		if binary.LittleEndian.Uint16(p[0:]) != nodeMagic || !nodeIsLeaf(p) {
			f.Release()
			return blk, vals, fmt.Errorf("%w: cursor block %d is not a leaf", ErrCorrupt, blk)
		}
		n := nodeCount(p)
		i := nodeSearch(p, key, 0)
		for ; i < n; i++ {
			k, v, _ := nodeEntry(p, i)
			if k != key {
				break
			}
			vals = append(vals, v)
		}
		right := nodeRight(p)
		f.Release()
		if i < n || right == noSibling {
			return blk, vals, nil
		}
		blk = right
	}
}
