package core

// Regression test for the prune/recycle ABA race: vacuum reclaims a dead
// chunk version, the heap recycles its slot for a fresh version of the same
// chunk, and the writer re-inserts the identical (key, TID) index pair next
// to the stale entry. Pruners that observed the dead tuple before the
// recycle must not delete the fresh entry — without the locked re-check in
// pruneStale, two delayed prunes removed both copies and the live version
// became unreachable (reads returned a hole of zeros).

import (
	"bytes"
	"io"
	"slices"
	"testing"

	"postlob/internal/adt"
	"postlob/internal/btree"
	"postlob/internal/heap"
	"postlob/internal/txn"
)

func TestPruneStaleRecycledSlot(t *testing.T) {
	s := newTestStore(t)
	cs := s.chunkSize

	gen1 := bytes.Repeat([]byte{0x11}, cs)
	gen2 := bytes.Repeat([]byte{0x22}, cs)
	gen3 := bytes.Repeat([]byte{0x33}, cs)

	tx := s.mgr().Begin()
	ref, obj, err := s.Create(tx, CreateOptions{Kind: adt.KindFChunk})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Write(gen1); err != nil {
		t.Fatal(err)
	}
	obj.Close()
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Record the TID holding chunk 0's gen1 version.
	chunkTID := func() heap.TID {
		t.Helper()
		rtx := s.mgr().Begin()
		defer rtx.Abort()
		h, err := s.Open(rtx, ref)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		fo := h.(*fchunkObject)
		tid, err := fo.visit(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tid == heap.InvalidTID {
			t.Fatal("chunk 0 has no visible version")
		}
		return tid
	}
	gen1TID := chunkTID()

	// Supersede gen1, then reclaim it: its slot goes dead while the stale
	// index entry (0, gen1TID) stays behind.
	writeAll(t, s, ref, gen2)
	if n, err := s.Vacuum(false); err != nil {
		t.Fatal(err)
	} else if n == 0 {
		t.Fatal("vacuum reclaimed nothing; gen1 should be dead")
	}

	// gen3's insert recycles the dead slot: same TID, fresh duplicate entry.
	writeAll(t, s, ref, gen3)
	if tid := chunkTID(); tid != gen1TID {
		t.Skipf("heap did not recycle the reclaimed slot (got %v, want %v); scenario not reproducible", tid, gen1TID)
	}

	// Two pruners act on their pre-recycle observation of the dead tuple.
	// The locked re-check must see the live gen3 record and keep the entry.
	rtx := s.mgr().Begin()
	defer rtx.Abort()
	h, err := s.Open(rtx, ref)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	fo := h.(*fchunkObject)
	fo.pruneStale(0, heap.EncodeTID(gen1TID))
	fo.pruneStale(0, heap.EncodeTID(gen1TID))

	if got := readAll(t, s, rtx, ref); !bytes.Equal(got, gen3) {
		t.Fatalf("read after delayed prunes: got %x... want %x... (live index entry lost)", got[:4], gen3[:4])
	}
}

// The other recycling outcome: vacuum reclaims a superseded version of one
// chunk (or v-segment record) and the heap recycles its slot for a version of
// a different one. The stale index entry then points at a live tuple with the
// wrong tag, and pruning must delete it — checking the tag in place on the
// page — while every chunk still reads back correctly.
func TestPruneStaleSlotRecycledForOtherChunk(t *testing.T) {
	for _, kind := range []adt.StorageKind{adt.KindFChunk, adt.KindVSegment} {
		t.Run(kind.String(), func(t *testing.T) {
			s := newTestStore(t)
			// The two units: whole chunks 0 and 1 for f-chunk; for v-segment,
			// records far enough apart that writing one never range-scans the
			// other.
			n, k1 := int64(s.chunkSize), int64(s.chunkSize)
			if kind == adt.KindVSegment {
				n, k1 = 1024, 3*MaxSegmentSize
			}
			want := make([]byte, k1+n)
			put := func(ref adt.ObjectRef, off int64, fill byte) {
				t.Helper()
				data := bytes.Repeat([]byte{fill}, int(n))
				copy(want[off:], data)
				tx := s.mgr().Begin()
				obj, err := s.Open(tx, ref)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := obj.Seek(off, io.SeekStart); err != nil {
					t.Fatal(err)
				}
				if _, err := obj.Write(data); err != nil {
					t.Fatal(err)
				}
				if err := obj.Close(); err != nil {
					t.Fatal(err)
				}
				if _, err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}

			tx := s.mgr().Begin()
			ref, obj, err := s.Create(tx, CreateOptions{Kind: kind})
			if err != nil {
				t.Fatal(err)
			}
			obj.Close()
			if _, err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			// Unit 1 first: the object has its final size, so the metadata
			// record is not superseded again.
			put(ref, k1, 0x12)
			put(ref, 0, 0x11)
			var (
				rtx   *txn.Txn
				h     Object
				idx   *btree.Tree
				tid1  heap.TID
				prune func(key, val uint64)
			)
			// stale reports whether unit 0 has an index entry naming unit 1's
			// live slot.
			stale := func() bool {
				vals, err := idx.Lookup(0)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range vals {
					if v == heap.EncodeTID(tid1) {
						return true
					}
				}
				return false
			}
			round := func() {
				t.Helper()
				if _, err := s.Vacuum(false); err != nil {
					t.Fatal(err)
				}
			}
			// Supersede unit 0 and reclaim its old version, whose index entry
			// stays behind; then unit 1's new version recycles a reclaimed
			// slot. Reclaiming everything before unit 0 is superseded leaves
			// its old slot the only one free. Which slot the heap takes is
			// still its own choice, so repeat until it is unit 0's.
			for i := 0; ; i++ {
				if i == 8 {
					t.Skip("unit 1 never recycled a slot of unit 0; scenario not reproducible")
				}
				round()
				put(ref, 0, byte(0x20+i))
				round()
				put(ref, k1, byte(0x30+i))
				if h != nil {
					h.Close()
					rtx.Abort()
				}
				rtx = s.mgr().Begin() // a snapshot held across rounds would pin every version
				if h, err = s.Open(rtx, ref); err != nil {
					t.Fatal(err)
				}
				switch o := h.(type) {
				case *fchunkObject:
					idx, prune = o.idx, o.pruneStale
					tid1, err = o.visit(uint64(k1/n), nil)
				case *vsegmentObject:
					idx, prune = o.segIdx, o.pruneStale
					_, tid1, err = o.lookupVisible(uint64(k1))
				}
				if err != nil || !tid1.Valid() {
					t.Fatalf("unit 1: %v, %v", tid1, err)
				}
				if stale() {
					break
				}
			}
			defer rtx.Abort()
			defer h.Close()

			prune(0, heap.EncodeTID(tid1))
			if stale() {
				t.Fatal("unit 0's entry naming unit 1's slot survived its prune")
			}
			if got := readAll(t, s, rtx, ref); !bytes.Equal(got, want) {
				t.Fatal("the object reads back wrong after the prune")
			}
		})
	}
}

// A read collects its span's index entries in one walk before it visits the
// heap (fchunkObject.runOf), so between the walk and the visits vacuum may
// reclaim a dead version and the heap recycle its slot for a newer version
// of the same chunk. The run then names a slot that holds a version the
// reader must not see: the probe has to skip it as invisible rather than
// prune it, and find the snapshot's own version among the run's other
// entries.
func TestRunReadSurvivesSlotRecycling(t *testing.T) {
	s := newTestStore(t)
	cs := s.chunkSize
	chunk := func(fill byte) []byte { return bytes.Repeat([]byte{fill}, cs) }
	// Chunk 1 keeps one version throughout; chunk 0 gets three.
	gen1, gen2, gen3, tail := chunk(0x11), chunk(0x22), chunk(0x33), chunk(0x44)
	ref := createFChunk(t, s, "", slices.Concat(gen1, tail))
	rewrite := func(data []byte) {
		t.Helper()
		tx := s.mgr().Begin()
		obj, err := s.Open(tx, ref)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := obj.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := obj.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	chunkTID := func() heap.TID {
		t.Helper()
		rtx := s.mgr().Begin()
		defer rtx.Abort()
		h, err := s.Open(rtx, ref)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		tid, err := h.(*fchunkObject).visit(0, nil)
		if err != nil || !tid.Valid() {
			t.Fatalf("chunk 0: %v, %v", tid, err)
		}
		return tid
	}
	gen1TID := chunkTID()
	rewrite(gen2) // gen1 is dead but not yet reclaimed

	// The reader's snapshot sees gen2; its run holds gen1's entry, gen2's
	// and chunk 1's.
	rtx := s.mgr().Begin()
	defer rtx.Abort()
	h, err := s.Open(rtx, ref)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	fo := h.(*fchunkObject)
	fo.span(0, 1)
	if _, err := fo.runOf(0); err != nil {
		t.Fatal(err)
	}
	if n := len(fo.bufs.run); n != 3 {
		t.Fatalf("run holds %d entries, want 3: two versions of chunk 0, one of chunk 1", n)
	}

	// Before the reader visits the heap: reclaim gen1, then let gen3 recycle
	// its slot.
	if n, err := s.Vacuum(false); err != nil {
		t.Fatal(err)
	} else if n == 0 {
		t.Fatal("vacuum reclaimed nothing; gen1 should be dead")
	}
	rewrite(gen3)
	if tid := chunkTID(); tid != gen1TID {
		t.Skipf("gen3 did not recycle gen1's slot (got %v, want %v); scenario not reproducible", tid, gen1TID)
	}

	var got []byte
	for seq := int64(0); seq < 2; seq++ {
		tid, err := fo.visit(uint64(seq), func(payload []byte) (err error) {
			got, err = fo.decodeChunk(seq, got, payload)
			return err
		})
		if err != nil || !tid.Valid() {
			t.Fatalf("chunk %d from the run: %v, %v", seq, tid, err)
		}
	}
	fo.endSpan()
	if want := slices.Concat(gen2, tail); !bytes.Equal(got, want) {
		t.Fatalf("read through a run outdated by slot recycling: got %x..., want the snapshot's %x...", got[:4], want[:4])
	}
	// The entry naming the recycled slot, now gen3's, survived the probe;
	// the reader's snapshot still reads gen2 and a new one reads gen3.
	vals, err := fo.idx.Lookup(0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(vals, heap.EncodeTID(gen1TID)) {
		t.Fatalf("the index entry of gen3, the live version at %v, was pruned", gen1TID)
	}
	if got := readAll(t, s, rtx, ref); !bytes.Equal(got, slices.Concat(gen2, tail)) {
		t.Fatalf("the reader's snapshot reads %x..., want gen2 %x...", got[:4], gen2[:4])
	}
	ntx := s.mgr().Begin()
	defer ntx.Abort()
	if got := readAll(t, s, ntx, ref); !bytes.Equal(got, slices.Concat(gen3, tail)) {
		t.Fatalf("a new snapshot reads %x..., want gen3 %x...", got[:4], gen3[:4])
	}
}
