package core

// Vacuum regression tests for the MVCC version store: an old open snapshot
// pins every version it can still see (the daemon must not reclaim under
// it), closing the snapshot releases the pin, and reclaimed space is
// actually reused rather than leaked to relation growth.

import (
	"bytes"
	"io"
	"testing"

	"postlob/internal/adt"
	"postlob/internal/heap"
	"postlob/internal/obs"
	"postlob/internal/txn"
)

// writeAll overwrites the whole object with data in one transaction.
func writeAll(t *testing.T, s *Store, ref adt.ObjectRef, data []byte) {
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

// readAll reads the whole object under tx's snapshot.
func readAll(t *testing.T, s *Store, tx *txn.Txn, ref adt.ObjectRef) []byte {
	t.Helper()
	obj, err := s.Open(tx, ref)
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()
	data, err := io.ReadAll(obj)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestVacuumPinnedByOldSnapshot: versions still visible to an open snapshot
// survive a history-reclaiming vacuum; once the snapshot closes, the same
// vacuum reclaims them.
func TestVacuumPinnedByOldSnapshot(t *testing.T) {
	s := newTestStore(t)
	tx := s.mgr().Begin()
	ref, obj, err := s.Create(tx, CreateOptions{Kind: adt.KindFChunk})
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Repeat([]byte{0xAA}, 3*s.chunkSize)
	if _, err := obj.Write(old); err != nil {
		t.Fatal(err)
	}
	obj.Close()
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Pin: a reader snapshot taken while `old` is the visible state.
	pin := s.mgr().Begin()

	// Supersede every chunk twice, after the pin.
	writeAll(t, s, ref, bytes.Repeat([]byte{0xBB}, 3*s.chunkSize))
	writeAll(t, s, ref, bytes.Repeat([]byte{0xCC}, 3*s.chunkSize))

	// Every superseded version was deleted after pin's snapshot, so the
	// horizon is below all of them: nothing may be reclaimed.
	n, err := s.Vacuum(false)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("vacuum reclaimed %d versions pinned by an open snapshot", n)
	}
	// The pinned snapshot still reads its original state.
	if got := readAll(t, s, pin, ref); !bytes.Equal(got, old) {
		t.Fatalf("pinned snapshot read changed: got %x... want %x...", got[:8], old[:8])
	}

	// Release the pin; the horizon advances past the dead versions.
	pin.Abort()
	n, err = s.Vacuum(false)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("vacuum reclaimed nothing after the pinning snapshot closed")
	}
	// Current readers are untouched.
	cur := s.mgr().Begin()
	defer cur.Abort()
	if got := readAll(t, s, cur, ref); !bytes.Equal(got, bytes.Repeat([]byte{0xCC}, 3*s.chunkSize)) {
		t.Fatal("current state damaged by vacuum")
	}
}

// TestVacuumReclaimedSpaceReused: with a history-reclaiming vacuum running
// between overwrites, the data relation stops growing — inserts land in the
// space vacuum freed instead of extending the file.
func TestVacuumReclaimedSpaceReused(t *testing.T) {
	s := newTestStore(t)
	tx := s.mgr().Begin()
	ref, obj, err := s.Create(tx, CreateOptions{Kind: adt.KindFChunk})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Write(bytes.Repeat([]byte{1}, 4*s.chunkSize)); err != nil {
		t.Fatal(err)
	}
	obj.Close()
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	metas := s.cat.Objects(false)
	if len(metas) != 1 || metas[0].DataRel == "" {
		t.Fatalf("expected one chunked object, got %+v", metas)
	}
	rel, err := heap.Open(s.pool, metas[0].SM, metas[0].DataRel)
	if err != nil {
		t.Fatal(err)
	}

	// Warm up: one overwrite + vacuum establishes the steady-state size
	// (the first overwrite may extend before vacuum has freed anything).
	writeAll(t, s, ref, bytes.Repeat([]byte{2}, 4*s.chunkSize))
	if _, err := s.Vacuum(false); err != nil {
		t.Fatal(err)
	}
	steady, err := rel.NBlocks()
	if err != nil {
		t.Fatal(err)
	}

	before := obs.Snapshot()
	for i := 0; i < 8; i++ {
		writeAll(t, s, ref, bytes.Repeat([]byte{byte(3 + i)}, 4*s.chunkSize))
		if _, err := s.Vacuum(false); err != nil {
			t.Fatal(err)
		}
	}
	after := obs.Snapshot()
	nb, err := rel.NBlocks()
	if err != nil {
		t.Fatal(err)
	}
	if nb > steady {
		t.Fatalf("data relation grew %d -> %d blocks despite vacuumed free space", steady, nb)
	}
	if d := after.CounterDelta(before, "vacuum.reclaimed"); d == 0 {
		t.Fatal("vacuum.reclaimed did not move across 8 overwrite+vacuum cycles")
	}
	// Conservation: every version created in the window is either still
	// live or was reclaimed (no relation drops in this workload).
	created := after.CounterDelta(before, "versions.created")
	reclaimed := after.CounterDelta(before, "versions.reclaimed")
	liveDelta := after.Gauge("versions.live") - before.Gauge("versions.live")
	if created != liveDelta+reclaimed {
		t.Fatalf("version conservation: created=%d live+=%d reclaimed=%d", created, liveDelta, reclaimed)
	}
}

// TestVacuumDaemonBackground exercises the non-manual daemon end to end:
// it runs rounds on its own goroutine, reclaims superseded history, and
// stops cleanly with no sticky error.
func TestVacuumDaemonBackground(t *testing.T) {
	s := newTestStore(t)
	tx := s.mgr().Begin()
	ref, obj, err := s.Create(tx, CreateOptions{Kind: adt.KindFChunk})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Write(bytes.Repeat([]byte{9}, 2*s.chunkSize)); err != nil {
		t.Fatal(err)
	}
	obj.Close()
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	v := s.StartVacuum(VacuumOptions{Interval: 1e6, ReclaimHistory: true}) // 1ms ticks
	for i := 0; i < 5; i++ {
		writeAll(t, s, ref, bytes.Repeat([]byte{byte(10 + i)}, 2*s.chunkSize))
	}
	if err := v.Stop(); err != nil {
		t.Fatalf("daemon stopped with error: %v", err)
	}
	if err := v.Stop(); err != nil { // idempotent
		t.Fatalf("second Stop: %v", err)
	}
	cur := s.mgr().Begin()
	defer cur.Abort()
	if got := readAll(t, s, cur, ref); !bytes.Equal(got, bytes.Repeat([]byte{14}, 2*s.chunkSize)) {
		t.Fatal("current state damaged by background vacuum")
	}
}
