package postlob

// Failure-path tests for the background I/O engine at the facade: a device
// error hit by the asynchronous writer must never vanish — it is noted
// sticky in the pool and surfaces from the next Checkpoint, even if the
// device has recovered by then. The failed frames stay dirty, so a retry
// checkpoint lands the data once the fault clears.

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"postlob/internal/obs"
	"postlob/internal/storage"
)

// waitBgError polls the engine's error counter until the background writer
// has tripped over the injected fault at least once.
func waitBgError(t *testing.T, before obs.Snap) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for ObsSnapshot().CounterDelta(before, "buffer.bgwriter.errors") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background writer never hit the injected write fault")
		}
		time.Sleep(time.Millisecond)
	}
}

// assertDirtyCounted fails the test unless every buffer-pool partition's
// dirty count matches its dirty frames. Call it only with the engine stopped.
func assertDirtyCounted(t *testing.T, db *DB, when string) {
	t.Helper()
	if _, err := db.pool.Buf.CheckDirtyCounts(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// TestBackgroundWriteFaultSurfacesAtCheckpoint proves the async error
// contract end to end under checkpoint-grained durability: the writer
// goroutine hits an injected write fault, the device then heals, and the
// very next Checkpoint still fails with the injected error — the only way
// it can know is the sticky slot. The retry checkpoint succeeds and the
// committed bytes survive a reopen.
func TestBackgroundWriteFaultSurfacesAtCheckpoint(t *testing.T) {
	dir := t.TempDir()
	var fm *storage.FaultManager
	db, err := Open(dir, Options{
		// Large enough that the workload never needs a foreground eviction:
		// the only write-back attempts are the background writer's.
		BufferPoolPages: 128,
		WrapStorage: func(id storage.ID, mgr storage.Manager) storage.Manager {
			if id != storage.Disk {
				return mgr
			}
			fm = storage.NewFaultManager(mgr)
			return fm
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The device rejects writes before the workload even starts; commits
	// under checkpoint-grained durability touch no storage-manager device,
	// so everything succeeds while the writer fails behind the scenes.
	before := ObsSnapshot()
	fm.FailWrites(true)

	want := bytes.Repeat([]byte("async! "), 8000)
	var ref ObjectRef
	tx := db.Begin()
	ref, obj, err := db.LargeObjects().Create(tx, CreateOptions{Kind: FChunk})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Write(want); err != nil {
		t.Fatal(err)
	}
	if err := obj.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	waitBgError(t, before)
	fm.Heal()
	// Stop the engine before asserting: StopEngine waits out any round still
	// in flight, so the sticky slot is settled — exactly one noted error, and
	// no late round can re-note after the checkpoint below consumes it.
	db.pool.Buf.StopEngine()
	assertDirtyCounted(t, db, "after failed background writes")

	// The device is healthy again, so a failure here can only be the sticky
	// async error being surfaced.
	if err := db.Checkpoint(); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("checkpoint after async fault = %v, want ErrInjected", err)
	}
	// The failed frames stayed dirty, so the retry checkpoint lands them.
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("retry checkpoint on healed device: %v", err)
	}
	assertDirtyCounted(t, db, "after retry checkpoint")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rtx := db2.Begin()
	defer rtx.Abort()
	robj, err := db2.LargeObjects().Open(rtx, ref)
	if err != nil {
		t.Fatal(err)
	}
	defer robj.Close()
	got, err := io.ReadAll(robj)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered %d bytes, want %d", len(got), len(want))
	}
}

// TestBackgroundWriteFaultSurfacesAtCheckpointWAL runs the async contract
// under DurabilityWAL. Here a device fault in the writer's flush-ceiling
// path poisons the log (wal.Log.ioErr is sticky by design — a WAL device
// failure is a crash), so the assertions differ from checkpoint mode: the
// error must surface loudly from the next Checkpoint rather than vanish
// into the goroutine, and reopening the database — the operator response a
// dead log demands — must recover every transaction that committed before
// the fault while discarding the one in flight.
func TestBackgroundWriteFaultSurfacesAtCheckpointWAL(t *testing.T) {
	dir := t.TempDir()
	var fm *storage.FaultManager
	db, err := Open(dir, Options{
		BufferPoolPages: 128,
		Durability:      DurabilityWAL,
		WrapStorage: func(id storage.ID, mgr storage.Manager) storage.Manager {
			if id != storage.Disk {
				return mgr
			}
			fm = storage.NewFaultManager(mgr)
			return fm
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// v1 commits while the device is healthy: its images and commit record
	// are durable in the log via group commit.
	want := bytes.Repeat([]byte("wal mode "), 6000)
	var ref ObjectRef
	tx := db.Begin()
	ref, obj, err := db.LargeObjects().Create(tx, CreateOptions{Kind: FChunk})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Write(want); err != nil {
		t.Fatal(err)
	}
	if err := obj.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// A second transaction dirties pages and stays open; the background
	// writer picks them up during the fault window and fails.
	tx2 := db.Begin()
	obj2, err := db.LargeObjects().Open(tx2, ref)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj2.Write(bytes.Repeat([]byte{0xEE}, 30000)); err != nil {
		t.Fatal(err)
	}
	if err := obj2.Close(); err != nil {
		t.Fatal(err)
	}

	before := ObsSnapshot()
	fm.FailWrites(true)
	waitBgError(t, before)
	fm.Heal()
	// Settle the sticky slot: StopEngine waits out any round in flight, so
	// the noted error is in place before the assertion reads it.
	db.pool.Buf.StopEngine()
	assertDirtyCounted(t, db, "after failed background writes")

	// The async failure surfaces from the next checkpoint — never silently
	// dropped. (Depending on where the fault landed, the log may now be
	// poisoned; either way the injected error is what comes out.)
	if err := db.Checkpoint(); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("WAL checkpoint after async fault = %v, want ErrInjected", err)
	}
	assertDirtyCounted(t, db, "after failed checkpoint")

	// A dead log means crash semantics: reopen rather than close cleanly.
	// Recovery replays the durable log; v1 must be intact, tx2 invisible.
	db2, err := Open(dir, Options{Durability: DurabilityWAL})
	if err != nil {
		t.Fatalf("reopen after async WAL fault: %v", err)
	}
	defer db2.Close()
	rtx := db2.Begin()
	robj, err := db2.LargeObjects().Open(rtx, ref)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(robj)
	if err != nil {
		t.Fatal(err)
	}
	if err := robj.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rtx.Abort(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered %d bytes, want the committed version (%d bytes)", len(got), len(want))
	}

	// The recovered database is fully live: a fresh commit round-trips.
	wtx := db2.Begin()
	wobj, err := db2.LargeObjects().Open(wtx, ref)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wobj.Write([]byte("post-recovery write")); err != nil {
		t.Fatal(err)
	}
	if err := wobj.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := wtx.Commit(); err != nil {
		t.Fatalf("commit after recovery: %v", err)
	}
}
