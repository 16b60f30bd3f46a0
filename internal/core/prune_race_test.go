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
	"testing"

	"postlob/internal/adt"
	"postlob/internal/heap"
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
	v := s.StartVacuum(VacuumOptions{Manual: true, ReclaimHistory: true})
	defer v.Stop()
	if n, err := v.Round(); err != nil {
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
