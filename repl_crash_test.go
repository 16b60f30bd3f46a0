package postlob

// repl_crash_test.go — the replica-vs-oracle crash sweep. A primary ships
// WAL to one replica while both sit on simulated volatile write caches
// (storage.CrashManager). A seeded workload commits objects and records
// every committed payload in an in-memory oracle; then the sweep crashes the
// primary, the replica, or both — sometimes with an uncommitted transaction
// in flight, sometimes with a countdown crash firing inside commit's storage
// operations — reopens the victims, waits for the stream to converge, and
// verifies every oracle object byte-for-byte on BOTH sides. The invariants
// under test:
//
//   - a committed object survives any crash of either side (commit returned,
//     so its WAL records were synced; the replica only ever received synced
//     bytes, so primary recovery can never be behind the replica);
//   - an uncommitted or torn-commit object never appears on either side;
//   - a crashed replica resumes from its checkpoint-grained control block by
//     pure idempotent re-apply, or falls back to a base resync if the
//     primary's checkpoint truncated its position away.
//
// The sweep runs REPLCRASH seeds (default 3); REPLSEED pins a single seed
// for reproduction. check.sh widens it to 100 seeds under the race detector
// when REPL=1.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"postlob/internal/storage"
)

// openReplCrashPrimary opens (or reopens after a crash) a WAL-shipping
// primary whose disk manager sits behind a fresh CrashManager. Reopening
// rebinds the same replication address; transient rebind failures are
// retried so the waiting replica can reconnect to the port it knows.
func openReplCrashPrimary(t *testing.T, dir string, seed int64, addr string) (*DB, *storage.CrashManager) {
	t.Helper()
	var cm *storage.CrashManager
	opts := Options{
		Durability:      DurabilityWAL,
		WALSegBlocks:    8,
		BufferPoolPages: 48,
		ReplicateTo:     addr,
		WrapStorage: func(id storage.ID, mgr storage.Manager) storage.Manager {
			if id != storage.Disk {
				return mgr
			}
			cm = storage.NewCrashManager(mgr, storage.CrashConfig{Seed: seed})
			return cm
		},
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		cm = nil
		db, err := Open(dir, opts)
		if err == nil {
			if cm == nil {
				t.Fatal("WrapStorage never saw the disk manager")
			}
			return db, cm
		}
		if !strings.Contains(err.Error(), "replication listener") || time.Now().After(deadline) {
			t.Fatalf("open primary: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// openReplCrashReplica opens (or reopens) a streaming replica over a fresh
// CrashManager. The small checkpoint interval makes the replica persist its
// resume position often, so crashes exercise both stream resume and (after a
// primary checkpoint truncates the log) full base resync.
func openReplCrashReplica(t *testing.T, dir string, seed int64, primary string) (*DB, *storage.CrashManager) {
	t.Helper()
	var cm *storage.CrashManager
	db, err := Open(dir, Options{
		ReplicaOf:           primary,
		ReplCheckpointEvery: 8 << 10,
		BufferPoolPages:     48,
		WrapStorage: func(id storage.ID, mgr storage.Manager) storage.Manager {
			if id != storage.Disk {
				return mgr
			}
			cm = storage.NewCrashManager(mgr, storage.CrashConfig{Seed: seed})
			return cm
		},
	})
	if err != nil {
		t.Fatalf("open replica: %v", err)
	}
	if cm == nil {
		t.Fatal("WrapStorage never saw the disk manager")
	}
	return db, cm
}

// crashReplPrimary power-cuts the primary: unsynced device state is gone,
// the replication listener closes (freeing the port for the reopen), and the
// background engine's goroutines die with the "machine". The DB value is
// abandoned, never Closed — a crash runs no shutdown path. With the engine
// stopped the pool is quiescent, so its dirty counts must be exact.
func crashReplPrimary(t *testing.T, pdb *DB, cm *storage.CrashManager) {
	t.Helper()
	cm.Crash()
	pdb.sender.Close()
	pdb.pool.Buf.StopEngine()
	assertDirtyCounted(t, pdb, "crashed primary")
}

// crashReplReplica power-cuts the replica: the receiver dies without
// persisting progress (Kill, not Stop) and the device loses unsynced state.
func crashReplReplica(t *testing.T, rdb *DB, cm *storage.CrashManager) {
	t.Helper()
	rdb.recv.Kill()
	cm.Crash()
	rdb.pool.Buf.StopEngine()
	assertDirtyCounted(t, rdb, "crashed replica")
}

// overwriteObject replaces an existing object's content in one committed
// transaction.
func overwriteObject(t *testing.T, db *DB, ref ObjectRef, data []byte) {
	t.Helper()
	tx := db.Begin()
	obj, err := db.LargeObjects().Open(tx, ref)
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.Truncate(0); err != nil {
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

// verifyReplOracle waits for convergence and checks every committed object
// on the primary (transactional read) and the replica (snapshot read).
func verifyReplOracle(t *testing.T, pdb, rdb *DB, oracle map[ObjectRef][]byte, tag string) {
	t.Helper()
	waitCaughtUp(t, pdb, rdb, 20*time.Second)
	for ref, want := range oracle {
		tx := pdb.Begin()
		obj, err := pdb.LargeObjects().Open(tx, ref)
		if err != nil {
			t.Fatalf("%s: primary open %v: %v", tag, ref, err)
		}
		got, err := readAllAndClose(obj)
		tx.Abort()
		if err != nil {
			t.Fatalf("%s: primary read %v: %v", tag, ref, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: primary object %v diverged from oracle: %s", tag, ref, diffDesc(got, want))
		}
		if got := readReplica(t, rdb, ref); !bytes.Equal(got, want) {
			t.Fatalf("%s: replica object %v diverged from oracle: %s", tag, ref, diffDesc(got, want))
		}
	}
}

func readAllAndClose(obj Object) ([]byte, error) {
	defer obj.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(obj); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// replCrashSeeds returns the sweep's seed list: REPLSEED pins a single seed,
// REPLCRASH widens the sweep (default 3 seeds).
func replCrashSeeds(t *testing.T) []int64 {
	if v := os.Getenv("REPLSEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad REPLSEED %q: %v", v, err)
		}
		return []int64{n}
	}
	width := 3
	if v := os.Getenv("REPLCRASH"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad REPLCRASH %q", v)
		}
		width = n
	}
	seeds := make([]int64, width)
	for i := range seeds {
		seeds[i] = int64(1000 + i)
	}
	return seeds
}

func TestReplicationCrashSweep(t *testing.T) {
	for _, seed := range replCrashSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			replCrashSweepRun(t, seed)
			if t.Failed() {
				t.Logf("reproduce: REPLSEED=%d go test -race -run 'TestReplicationCrashSweep' .", seed)
			}
		})
	}
}

func replCrashSweepRun(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	pdir, rdir := t.TempDir(), t.TempDir()
	pdb, pcm := openReplCrashPrimary(t, pdir, seed, "127.0.0.1:0")
	addr := pdb.ReplicationAddr().String()
	rdb, rcm := openReplCrashReplica(t, rdir, seed^0x5eed, addr)

	oracle := make(map[ObjectRef][]byte)
	var refs []ObjectRef

	const rounds = 4
	for round := 0; round < rounds; round++ {
		// Committed workload: a few creates and overwrites of seeded random
		// payloads, each recorded in the oracle the moment commit returns.
		for i, n := 0, 2+rng.Intn(4); i < n; i++ {
			data := make([]byte, 1+rng.Intn(30_000))
			rng.Read(data)
			if len(refs) > 0 && rng.Intn(3) == 0 {
				ref := refs[rng.Intn(len(refs))]
				overwriteObject(t, pdb, ref, data)
				oracle[ref] = data
			} else {
				ref := commitObject(t, pdb, data)
				refs = append(refs, ref)
				oracle[ref] = data
			}
		}
		// An occasional primary checkpoint exercises slot holdback (the
		// connected replica pins the log) and, while the replica is down in a
		// later round, genuine truncation forcing a base resync.
		if rng.Intn(3) == 0 {
			if err := pdb.Checkpoint(); err != nil {
				t.Fatalf("round %d: primary checkpoint: %v", round, err)
			}
		}

		victim := rng.Intn(3) // 0: primary, 1: replica, 2: both
		if victim != 1 {
			// The primary sometimes dies dirty: an open transaction whose
			// writes must vanish, or a countdown crash striking inside the
			// commit's own storage operations.
			switch rng.Intn(3) {
			case 0:
				tx := pdb.Begin()
				if _, obj, err := pdb.LargeObjects().Create(tx, CreateOptions{Kind: FChunk}); err == nil {
					junk := make([]byte, 1+rng.Intn(20_000))
					rng.Read(junk)
					obj.Write(junk)
					obj.Close()
				}
				// Neither committed nor aborted: the crash erases it.
			case 1:
				tx := pdb.Begin()
				ref, obj, err := pdb.LargeObjects().Create(tx, CreateOptions{Kind: FChunk})
				if err != nil {
					t.Fatalf("round %d: create: %v", round, err)
				}
				junk := make([]byte, 1+rng.Intn(20_000))
				rng.Read(junk)
				if _, err := obj.Write(junk); err != nil {
					t.Fatalf("round %d: write: %v", round, err)
				}
				if err := obj.Close(); err != nil {
					t.Fatalf("round %d: close: %v", round, err)
				}
				pcm.CrashAfter(rng.Intn(40))
				if _, err := tx.Commit(); err == nil {
					// The commit beat the countdown, so it is durable and
					// binding — the oracle must expect it everywhere.
					refs = append(refs, ref)
					oracle[ref] = junk
				}
			}
			crashReplPrimary(t, pdb, pcm)
			pdb, pcm = openReplCrashPrimary(t, pdir, seed+101*int64(round)+1, addr)
		}
		if victim != 0 {
			crashReplReplica(t, rdb, rcm)
			rdb, rcm = openReplCrashReplica(t, rdir, (seed^0x5eed)+101*int64(round)+1, addr)
		}
		verifyReplOracle(t, pdb, rdb, oracle, fmt.Sprintf("round %d (victim %d)", round, victim))
	}

	// A clean replica shutdown persists final progress; the reopened replica
	// must resume without a base backup and still match the oracle.
	if err := rdb.Close(); err != nil {
		t.Fatalf("replica close: %v", err)
	}
	rdb, rcm = openReplCrashReplica(t, rdir, seed+9999, addr)
	verifyReplOracle(t, pdb, rdb, oracle, "final reopen")
	_ = rcm
	rdb.Close()
	pdb.Close()
}
