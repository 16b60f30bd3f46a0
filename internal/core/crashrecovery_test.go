package core

// Randomized crash-recovery verification: a seeded workload generator runs
// create/write/seek/overwrite/trim/archive operations (with commits, aborts,
// and time-travel reads) across all four object implementations against both
// the real stack and an in-memory oracle, then crashes the simulated machine
// at a random operation boundary. Recovery over the surviving durable image
// must match the oracle's view of committed state exactly: committed objects
// byte-identical, uncommitted work invisible, the segment index consistent
// with contents, and the WORM relocation maps intact.
//
// Everything — the workload, the crash point, the verification probes — is
// derived from the seed alone, so any failure is replayed bit-for-bit with
//
//	CRASHSEED=<n> go test -run TestCrashRecovery ./internal/core

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"postlob/internal/adt"
	"postlob/internal/buffer"
	"postlob/internal/catalog"
	"postlob/internal/heap"
	"postlob/internal/obs"
	"postlob/internal/storage"
	"postlob/internal/txn"
	"postlob/internal/wal"
)

// crashStack is a full database stack whose storage managers sit behind
// volatile write caches: a CrashManager over a durable MemManager plays the
// magnetic disk, and a CrashManager over a real (file-backed) WormManager
// plays the optical jukebox. The commit log and catalog live in dir, like a
// real installation.
type crashStack struct {
	dir     string
	diskCM  *storage.CrashManager
	wormCM  *storage.CrashManager
	mgr     *txn.Manager
	store   *Store
	wlog    *wal.Log // non-nil in WAL mode
	walMode bool
	down    bool // the power failed during recovery; store is nil
}

// openCrashStack builds the stack in one of the two durability modes under
// trial: force-at-commit (walMode false — every commit is followed by a
// checkpoint) or write-ahead logging (walMode true — commits group-flush a log that redo
// recovery replays on the next open). The WAL lives on the same crash-
// simulated manager as the data, so torn writes land inside the log file
// too.
//
// A non-negative recoveryCrash arms the disk's crash countdown just before
// redo recovery: the power fails that many device operations into replay or
// its closing checkpoint. openCrashStack then returns the half-open stack
// with down set (nothing past recovery is built), and the caller crashes it
// and boots again. A countdown that outlasts recovery is disarmed, and the
// stack opens as usual.
func openCrashStack(t *testing.T, dir string, durable *storage.MemManager, cfg storage.CrashConfig, walMode bool, recoveryCrash int) *crashStack {
	t.Helper()
	sw := storage.NewSwitch()
	diskCM := storage.NewCrashManager(durable, cfg)
	sw.Register(storage.Mem, diskCM)
	worm, err := storage.NewWormManager(filepath.Join(dir, "worm"), storage.WormConfig{CacheBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	wormCM := storage.NewCrashManager(worm, storage.CrashConfig{Seed: cfg.Seed + 1})
	sw.Register(storage.Worm, wormCM)

	logPath := filepath.Join(dir, "pg_log")
	var mgr *txn.Manager
	if _, err := os.Stat(logPath); err == nil {
		if mgr, err = txn.Load(logPath); err != nil {
			t.Fatalf("recover commit log: %v", err)
		}
	} else {
		mgr = txn.NewManager()
	}
	mgr.SetLogPath(logPath)

	// A tiny pool forces evictions mid-transaction, so uncommitted pages
	// reach the (volatile) device constantly — and mid-replay, so recovery's
	// write-backs do too.
	pool := &heap.Pool{Buf: buffer.NewPool(16, sw, nil), Mgr: mgr}

	// Redo recovery runs before anything reads the data, exactly as Open
	// runs it. Tiny segments (8 blocks) force constant rotation and
	// checkpoint truncation under the randomized workload.
	var wlog *wal.Log
	if walMode {
		wlog, err = wal.Open(diskCM, wal.Config{SegBlocks: 8})
		if err != nil {
			t.Fatalf("open wal: %v", err)
		}
		t.Cleanup(func() { wlog.Close() })
		if recoveryCrash >= 0 {
			diskCM.CrashAfter(recoveryCrash)
		}
		err := Recover(pool, wlog)
		if diskCM.Crashed() {
			if err == nil {
				t.Fatalf("recovery reported success on a device that died under it")
			}
			return &crashStack{dir: dir, diskCM: diskCM, wormCM: wormCM,
				mgr: mgr, wlog: wlog, walMode: walMode, down: true}
		}
		if err != nil {
			t.Fatalf("wal recovery: %v", err)
		}
		diskCM.CrashAfter(-1)
	}

	cat, err := catalog.Open(filepath.Join(dir, "catalog.json"))
	if err != nil {
		t.Fatalf("open catalog: %v", err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "ufiles"), 0o755); err != nil {
		t.Fatal(err)
	}
	// A small chunk size gives every object many pages and a deep enough
	// B-tree to matter.
	store := NewStore(pool, cat, adt.NewRegistry(), Config{
		FilesDir:  filepath.Join(dir, "pfiles"),
		DefaultSM: storage.Mem,
		ChunkSize: 512,
	})
	cs := &crashStack{dir: dir, diskCM: diskCM, wormCM: wormCM,
		mgr: mgr, store: store, wlog: wlog, walMode: walMode}
	if walMode {
		AttachWAL(pool, wlog)
	}
	// The background I/O engine runs in manual mode: no goroutines, so the
	// sweep stays bit-for-bit reproducible from CRASHSEED — the workload loop
	// drives writer rounds and prefetch drains at script-derived boundaries.
	pool.Buf.StartEngine(buffer.EngineConfig{Manual: true})
	return cs
}

// commit commits tx. In force mode a checkpoint follows at once: it flushes
// and syncs every relation and only then saves the commit log — the
// POSTGRES no-WAL discipline; in WAL mode the durability log wired by
// AttachWAL makes the commit record durable via group commit instead.
func (cs *crashStack) commit(tx *txn.Txn) (txn.TS, error) {
	ts, err := tx.Commit()
	if err == nil && !cs.walMode {
		err = Checkpoint(cs.store.Pool(), nil)
	}
	return ts, err
}

// crash powers off the simulated machine: both storage managers lose their
// volatile write caches at the same instant. The WAL's flusher goroutine is
// then drained against the dead device — its errors are the crash itself.
func (cs *crashStack) crash() {
	cs.diskCM.Crash()
	cs.wormCM.Crash()
	if cs.wlog != nil {
		cs.wlog.Close()
	}
}

// Workload script actions.
const (
	aBegin = iota
	aCreate
	aWrite
	aTrim
	aRead
	aCommit
	aAbort
	aUnlink
	aArchive
	aAsOf
	aVacuum
)

// scriptOp is one fully concrete workload step; the generator resolves all
// targets, offsets, and lengths so execution involves no further choices.
type scriptOp struct {
	action int
	obj    int             // target object index (for aCreate: the new index)
	kind   adt.StorageKind // aCreate
	codec  string          // aCreate
	off, n int             // aWrite offset/length, aTrim length, aRead range
	fill   byte            // aWrite content seed
	snap   bool            // aCommit: record a time-travel snapshot
	snapIx int             // aAsOf: which recorded snapshot to re-read
}

func isFileKind(k adt.StorageKind) bool {
	return k == adt.KindUFile || k == adt.KindPFile
}

// pattern generates position-dependent content so a write landing at the
// wrong offset can never compare equal.
func pattern(fill byte, off, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = fill ^ byte(137*(off+i))
	}
	return b
}

// genState is the generator's abstract model of one object — just enough
// state (length, liveness) to emit always-legal concrete operations.
type genState struct {
	kind     adt.StorageKind
	commLen  int
	workLen  int
	touched  bool
	unlinked bool
	onWorm   bool
}

// generateScript derives the whole workload and the crash point from the
// seed alone: same seed, same script, same crash point.
func generateScript(seed int64) ([]scriptOp, int) {
	rng := rand.New(rand.NewSource(seed))
	var ops []scriptOp
	var objs []genState
	snapCount := 0

	eligible := func(pred func(o genState) bool) []int {
		var out []int
		for i, o := range objs {
			if !o.unlinked && (pred == nil || pred(o)) {
				out = append(out, i)
			}
		}
		return out
	}
	cur := func(i int) int {
		if objs[i].touched {
			return objs[i].workLen
		}
		return objs[i].commLen
	}
	touch := func(i int) {
		if !objs[i].touched {
			objs[i].workLen = objs[i].commLen
			objs[i].touched = true
		}
	}

	nTxn := 6 + rng.Intn(9)
	for ti := 0; ti < nTxn; ti++ {
		commits := rng.Float64() < 0.75
		ops = append(ops, scriptOp{action: aBegin})
		for oi, nOps := 0, 1+rng.Intn(5); oi < nOps; oi++ {
			live := eligible(nil)
			p := rng.Float64()
			switch {
			case len(live) == 0 || p < 0.22: // create
				var kind adt.StorageKind
				switch q := rng.Float64(); {
				case q < 0.40:
					kind = adt.KindFChunk
				case q < 0.70:
					kind = adt.KindVSegment
				case q < 0.90:
					kind = adt.KindPFile
				default:
					kind = adt.KindUFile
				}
				if !commits && !isFileKind(kind) {
					// Chunked objects are only created in committing
					// transactions, so the oracle's view of an aborted
					// create stays trivial (file objects ignore aborts
					// anyway — the §6.1 drawback).
					kind = adt.KindPFile
				}
				codec := ""
				if !isFileKind(kind) && rng.Float64() < 0.4 {
					codec = "fast"
				}
				ops = append(ops, scriptOp{action: aCreate, obj: len(objs), kind: kind, codec: codec})
				objs = append(objs, genState{kind: kind, touched: true})
			case p < 0.62: // write (append or overwrite)
				i := live[rng.Intn(len(live))]
				touch(i)
				off := rng.Intn(cur(i) + 1)
				n := 1 + rng.Intn(3500)
				if rng.Float64() < 0.1 {
					n = 4000 + rng.Intn(16000)
				}
				ops = append(ops, scriptOp{action: aWrite, obj: i, off: off, n: n, fill: byte(rng.Intn(256))})
				if off+n > objs[i].workLen {
					objs[i].workLen = off + n
				}
			case p < 0.72: // trim
				i := live[rng.Intn(len(live))]
				touch(i)
				if cur(i) == 0 {
					n := 1 + rng.Intn(800)
					ops = append(ops, scriptOp{action: aWrite, obj: i, off: 0, n: n, fill: byte(rng.Intn(256))})
					objs[i].workLen = n
					continue
				}
				n := rng.Intn(cur(i) + 1)
				ops = append(ops, scriptOp{action: aTrim, obj: i, n: n})
				objs[i].workLen = n
			default: // read, verified against the oracle as the workload runs
				i := live[rng.Intn(len(live))]
				off := rng.Intn(cur(i) + 1)
				n := rng.Intn(cur(i) - off + 1)
				ops = append(ops, scriptOp{action: aRead, obj: i, off: off, n: n})
			}
		}
		if commits {
			takeSnap := rng.Float64() < 0.5
			if takeSnap {
				snapCount++
			}
			ops = append(ops, scriptOp{action: aCommit, snap: takeSnap})
			for i := range objs {
				if objs[i].touched {
					objs[i].commLen = objs[i].workLen
					objs[i].touched = false
				}
			}
		} else {
			ops = append(ops, scriptOp{action: aAbort})
			for i := range objs {
				if objs[i].touched {
					if isFileKind(objs[i].kind) {
						objs[i].commLen = objs[i].workLen // files ignore aborts
					}
					objs[i].touched = false
				}
			}
		}
		// Between transactions: archival to the WORM jukebox, unlinking, and
		// historical reads of earlier snapshots.
		if arch := eligible(func(o genState) bool { return !isFileKind(o.kind) && !o.onWorm }); len(arch) > 0 && rng.Float64() < 0.12 {
			i := arch[rng.Intn(len(arch))]
			ops = append(ops, scriptOp{action: aArchive, obj: i})
			objs[i].onWorm = true
		}
		if live := eligible(nil); len(live) > 1 && rng.Float64() < 0.10 {
			i := live[rng.Intn(len(live))]
			ops = append(ops, scriptOp{action: aUnlink, obj: i})
			objs[i].unlinked = true
		}
		if snapCount > 0 && rng.Float64() < 0.25 {
			ops = append(ops, scriptOp{action: aAsOf, snapIx: rng.Intn(snapCount)})
		}
		// Online vacuum rides along under the crash sweep: a history-keeping
		// round between transactions, so every recorded snapshot must stay
		// readable even though aborted debris gets reclaimed under it — and a
		// crash landing mid-epoch after a vacuum must still recover exactly.
		if rng.Float64() < 0.15 {
			ops = append(ops, scriptOp{action: aVacuum})
		}
	}
	return ops, rng.Intn(len(ops) + 1)
}

// oracleObj is the in-memory model of one object's byte content.
type oracleObj struct {
	ref       adt.ObjectRef
	kind      adt.StorageKind
	committed []byte
	work      []byte // non-nil while touched by the open transaction
	durable   bool   // the creating transaction committed (and checkpointed)
	unlinked  bool
	onWorm    bool
}

func (o *oracleObj) cur() []byte {
	if o.work != nil {
		return o.work
	}
	return o.committed
}

func applyWrite(state []byte, off int, data []byte) []byte {
	if need := off + len(data); need > len(state) {
		state = append(state, make([]byte, need-len(state))...)
	}
	copy(state[off:], data)
	return state
}

// snapshot records the oracle's committed bytes for every durable chunked
// object at one commit timestamp — a time-travel target. nObjs is how many
// objects existed at capture: any chunked object created later has no
// version visible as of ts, and recovery must keep it that way.
type snapshot struct {
	ts    txn.TS
	nObjs int
	data  map[int][]byte
}

// runWorkload executes ops against the real stack and the oracle in
// lockstep, crashing the machine at operation boundary crashAt. It returns
// the oracle state plus the highest XID and commit timestamp issued, so
// recovery can prove neither is ever reused.
func runWorkload(t *testing.T, cs *crashStack, ops []scriptOp, crashAt int) ([]*oracleObj, []snapshot, txn.XID, txn.TS) {
	t.Helper()
	var (
		objs    []*oracleObj
		snaps   []snapshot
		tx      *txn.Txn
		handles = map[int]Object{}
		maxXID  txn.XID
		maxTS   txn.TS
	)
	handle := func(i int) Object {
		if h := handles[i]; h != nil {
			return h
		}
		h, err := cs.store.Open(tx, objs[i].ref)
		if err != nil {
			t.Fatalf("open obj %d: %v", i, err)
		}
		handles[i] = h
		return h
	}
	closeHandles := func() {
		keys := make([]int, 0, len(handles))
		for k := range handles {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		for _, k := range keys {
			if err := handles[k].Close(); err != nil {
				t.Fatalf("close obj %d: %v", k, err)
			}
		}
		handles = map[int]Object{}
	}

	for i, op := range ops {
		if i == crashAt {
			break
		}
		// Deterministic engine cadence: every third op boundary runs one
		// background-writer round and drains any queued prefetch windows, so
		// async write-back and read-ahead are exercised under every crash
		// point without losing seed reproducibility.
		if i%3 == 2 {
			if _, err := cs.store.Pool().Buf.BgWriterRound(8); err != nil {
				t.Fatalf("op %d: background writer round: %v", i, err)
			}
			cs.store.Pool().Buf.DrainPrefetch()
			if _, err := cs.store.Pool().Buf.CheckDirtyCounts(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			if err := cs.store.Pool().Buf.CheckRelDirtyCounts(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
		switch op.action {
		case aBegin:
			tx = cs.mgr.Begin() //lobvet:ignore — a later op ends it, or the crash leaves it open by design
			maxXID = tx.ID()
		case aCreate:
			copts := CreateOptions{Kind: op.kind, Codec: op.codec}
			if op.kind == adt.KindUFile {
				copts.Path = filepath.Join(cs.dir, "ufiles", fmt.Sprintf("u%d.bin", op.obj))
			}
			ref, h, err := cs.store.Create(tx, copts)
			if err != nil {
				t.Fatalf("op %d create %v: %v", i, op.kind, err)
			}
			o := &oracleObj{ref: ref, kind: op.kind, committed: []byte{}}
			if isFileKind(op.kind) {
				o.durable = true // native files are durable as written
			} else {
				o.work = []byte{}
			}
			objs = append(objs, o)
			handles[op.obj] = h
		case aWrite:
			o := objs[op.obj]
			h := handle(op.obj)
			data := pattern(op.fill, op.off, op.n)
			if _, err := h.Seek(int64(op.off), io.SeekStart); err != nil {
				t.Fatalf("op %d seek obj %d: %v", i, op.obj, err)
			}
			if _, err := h.Write(data); err != nil {
				t.Fatalf("op %d write obj %d [%d:+%d]: %v", i, op.obj, op.off, op.n, err)
			}
			if isFileKind(o.kind) {
				o.committed = applyWrite(o.committed, op.off, data)
			} else {
				if o.work == nil {
					o.work = append([]byte{}, o.committed...)
				}
				o.work = applyWrite(o.work, op.off, data)
			}
		case aTrim:
			o := objs[op.obj]
			if err := handle(op.obj).Truncate(int64(op.n)); err != nil {
				t.Fatalf("op %d trim obj %d to %d: %v", i, op.obj, op.n, err)
			}
			if isFileKind(o.kind) {
				o.committed = o.committed[:op.n]
			} else {
				if o.work == nil {
					o.work = append([]byte{}, o.committed...)
				}
				o.work = o.work[:op.n]
			}
		case aRead:
			o := objs[op.obj]
			h := handle(op.obj)
			if _, err := h.Seek(int64(op.off), io.SeekStart); err != nil {
				t.Fatalf("op %d seek obj %d: %v", i, op.obj, err)
			}
			got := make([]byte, op.n)
			if op.n > 0 {
				if _, err := io.ReadFull(h, got); err != nil {
					t.Fatalf("op %d read obj %d [%d:+%d]: %v", i, op.obj, op.off, op.n, err)
				}
			}
			if want := o.cur()[op.off : op.off+op.n]; !bytes.Equal(got, want) {
				t.Fatalf("op %d: live read of obj %d diverged from oracle at [%d:+%d]", i, op.obj, op.off, op.n)
			}
		case aCommit:
			closeHandles()
			ts, err := cs.commit(tx)
			if err != nil {
				t.Fatalf("op %d commit: %v", i, err)
			}
			maxTS = ts
			for _, o := range objs {
				if o.work != nil {
					o.committed, o.work = o.work, nil
				}
				if !isFileKind(o.kind) && !o.unlinked {
					o.durable = true // the commit's checkpoint synced every relation
				}
			}
			if op.snap {
				sn := snapshot{ts: ts, nObjs: len(objs), data: map[int][]byte{}}
				for j, o := range objs {
					if !isFileKind(o.kind) && o.durable && !o.unlinked {
						sn.data[j] = append([]byte{}, o.committed...)
					}
				}
				snaps = append(snaps, sn)
			}
			tx = nil
		case aAbort:
			closeHandles()
			if err := tx.Abort(); err != nil {
				t.Fatalf("op %d abort: %v", i, err)
			}
			for _, o := range objs {
				o.work = nil
			}
			tx = nil
		case aUnlink:
			o := objs[op.obj]
			if err := cs.store.Unlink(o.ref); err != nil {
				t.Fatalf("op %d unlink obj %d: %v", i, op.obj, err)
			}
			o.unlinked = true
		case aArchive:
			o := objs[op.obj]
			if err := cs.store.Migrate(o.ref, storage.Worm); err != nil {
				t.Fatalf("op %d archive obj %d: %v", i, op.obj, err)
			}
			o.onWorm = true
		case aAsOf:
			verifySnapshot(t, cs, objs, snaps[op.snapIx], false, "live")
		case aVacuum:
			// History is kept, so the recorded time-travel snapshots must
			// survive every pass.
			if _, err := cs.store.Vacuum(true); err != nil {
				t.Fatalf("op %d vacuum round: %v", i, err)
			}
		}
	}
	if _, err := cs.store.Pool().Buf.CheckDirtyCounts(); err != nil {
		t.Fatalf("at crash: %v", err)
	}
	if err := cs.store.Pool().Buf.CheckRelDirtyCounts(); err != nil {
		t.Fatalf("at crash: %v", err)
	}
	cs.crash()
	return objs, snaps, maxXID, maxTS
}

// verifySnapshot time-travels to one recorded commit and checks every object
// it captured. With lossy (torn-write mode), a loud read failure is
// acceptable; silent divergence never is.
func verifySnapshot(t *testing.T, cs *crashStack, objs []*oracleObj, sn snapshot, lossy bool, when string) {
	t.Helper()
	idxs := make([]int, 0, len(sn.data))
	for j := range sn.data {
		idxs = append(idxs, j)
	}
	sort.Ints(idxs)
	for _, j := range idxs {
		o := objs[j]
		if o.unlinked {
			continue // unlink drops the storage, history included
		}
		h, err := cs.store.OpenAsOf(sn.ts, o.ref)
		if err != nil {
			if !lossy {
				t.Errorf("%s: as-of ts %d open obj %d: %v", when, sn.ts, j, err)
			}
			continue
		}
		got, err := io.ReadAll(h)
		h.Close()
		if err != nil {
			if !lossy {
				t.Errorf("%s: as-of ts %d read obj %d: %v", when, sn.ts, j, err)
			}
			continue
		}
		if !bytes.Equal(got, sn.data[j]) {
			t.Errorf("%s: as-of ts %d obj %d: history rewritten (%d bytes, want %d)",
				when, sn.ts, j, len(got), len(sn.data[j]))
		}
	}
	// Absent set: chunked objects created after the snapshot had no version
	// visible at its timestamp, and neither crash recovery nor vacuum may
	// resurrect one. A loud open/read failure is the common shape (not even
	// the metadata record is visible as of ts); reading zero bytes is the
	// other acceptable outcome.
	for j := sn.nObjs; j < len(objs); j++ {
		o := objs[j]
		if isFileKind(o.kind) || o.unlinked {
			continue // files ignore time travel; unlink drops the storage
		}
		h, err := cs.store.OpenAsOf(sn.ts, o.ref)
		if err != nil {
			continue
		}
		got, err := io.ReadAll(h)
		h.Close()
		if err == nil && len(got) > 0 {
			t.Errorf("%s: as-of ts %d obj %d: resurrected %d bytes from before the object existed",
				when, sn.ts, j, len(got))
		}
	}
}

// verifySegmentReads proves the v-segment index consistent with contents:
// random-offset reads must return exactly the oracle's slices.
func verifySegmentReads(t *testing.T, cs *crashStack, o *oracleObj, j int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed ^ int64(o.ref.OID)))
	tx := cs.mgr.Begin()
	defer tx.Abort()
	h, err := cs.store.Open(tx, o.ref)
	if err != nil {
		t.Errorf("obj %d: segment reopen: %v", j, err)
		return
	}
	defer h.Close()
	if sz, err := h.Size(); err != nil || sz != int64(len(o.committed)) {
		t.Errorf("obj %d: recovered size %d (%v), want %d", j, sz, err, len(o.committed))
	}
	for k := 0; k < 3; k++ {
		off := rng.Intn(len(o.committed))
		n := 1 + rng.Intn(len(o.committed)-off)
		if _, err := h.Seek(int64(off), io.SeekStart); err != nil {
			t.Errorf("obj %d: segment seek %d: %v", j, off, err)
			return
		}
		got := make([]byte, n)
		if _, err := io.ReadFull(h, got); err != nil {
			t.Errorf("obj %d: segment read [%d:+%d]: %v", j, off, n, err)
			return
		}
		if !bytes.Equal(got, o.committed[off:off+n]) {
			t.Errorf("obj %d: segment index returned wrong bytes at [%d:+%d]", j, off, n)
		}
	}
}

// verifyRecovered asserts the recovered database matches the oracle's
// committed state, then runs a probe transaction proving the system is still
// live: fresh XID, fresh timestamp, durable commit.
func verifyRecovered(t *testing.T, cs *crashStack, objs []*oracleObj, snaps []snapshot, maxXID txn.XID, maxTS txn.TS, seed int64, lossy bool) {
	t.Helper()
	s := cs.store
	readAll := func(ref adt.ObjectRef) ([]byte, error) {
		tx := cs.mgr.Begin()
		defer tx.Abort()
		h, err := s.Open(tx, ref)
		if err != nil {
			return nil, err
		}
		defer h.Close()
		return io.ReadAll(h)
	}
	for j, o := range objs {
		switch {
		case o.unlinked:
			if got, err := readAll(o.ref); err == nil && len(got) > 0 {
				t.Errorf("obj %d: unlinked object readable after recovery (%d bytes)", j, len(got))
			}
		case !o.durable:
			if got, err := readAll(o.ref); err == nil && len(got) > 0 {
				t.Errorf("obj %d: uncommitted object visible after recovery (%d bytes)", j, len(got))
			}
		default:
			got, err := readAll(o.ref)
			if err != nil {
				if !lossy {
					t.Errorf("obj %d (%v): unreadable after recovery: %v", j, o.kind, err)
				}
				continue
			}
			if !bytes.Equal(got, o.committed) {
				t.Errorf("obj %d (%v): committed state diverged after recovery (%d bytes, want %d)",
					j, o.kind, len(got), len(o.committed))
				continue
			}
			if o.onWorm {
				meta, err := s.Catalog().Object(catalog.OID(o.ref.OID))
				if err != nil || meta.SM != storage.Worm {
					t.Errorf("obj %d: archived object not on the WORM manager after recovery (%v)", j, err)
				}
			}
			if o.kind == adt.KindVSegment && len(o.committed) > 0 {
				verifySegmentReads(t, cs, o, j, seed)
			}
		}
	}
	for _, sn := range snaps {
		verifySnapshot(t, cs, objs, sn, lossy, "recovered")
	}

	// Probe transaction: recovery must never reuse an XID or a timestamp —
	// either would resurrect a lost transaction's tuples.
	tx := cs.mgr.Begin()
	if maxXID != 0 && tx.ID() <= maxXID {
		t.Errorf("XID reuse after recovery: new %d, pre-crash max %d", tx.ID(), maxXID)
	}
	ref, h, err := s.Create(tx, CreateOptions{Kind: adt.KindFChunk})
	if err != nil {
		t.Fatalf("probe create: %v", err)
	}
	probe := pattern(0x42, 0, 9000)
	if _, err := h.Write(probe); err != nil {
		t.Fatalf("probe write: %v", err)
	}
	if err := h.Close(); err != nil {
		t.Fatalf("probe close: %v", err)
	}
	ts, err := cs.commit(tx)
	if err != nil {
		t.Fatalf("probe commit: %v", err)
	}
	if ts <= maxTS {
		t.Errorf("timestamp reuse after recovery: new %d, pre-crash max %d", ts, maxTS)
	}
	if got, err := readAll(ref); err != nil || !bytes.Equal(got, probe) {
		t.Errorf("probe object after commit: %d bytes, %v", len(got), err)
	}
}

// runCrashSeed is one full iteration: generate, run, crash, recover, verify.
// Every seed runs in both durability modes; the oracle is identical — a
// transaction that committed must survive the crash either way.
func runCrashSeed(t *testing.T, seed int64, tear, walMode bool) {
	t.Helper()
	testName := "TestCrashRecovery$"
	if tear {
		testName = "TestCrashRecoveryTornWrites"
	}
	mode := "force"
	if walMode {
		mode = "wal"
	}
	defer func() {
		if t.Failed() {
			t.Logf("reproduce: CRASHSEED=%d go test -run '%s/sweep/seed=%d/mode=%s' ./internal/core",
				seed, testName, seed, mode)
		}
	}()
	dir := t.TempDir()
	durable := storage.NewMemManager(storage.DeviceModel{}, nil)
	ops, crashAt := generateScript(seed)
	cs := openCrashStack(t, dir, durable, storage.CrashConfig{Seed: seed, TearWrites: tear}, walMode, -1)
	objs, snaps, maxXID, maxTS := runWorkload(t, cs, ops, crashAt)

	// Reboot: fresh caches and pools over the same durable media and files.
	// On some WAL-mode seeds the power fails again while that reboot is still
	// recovering, and only the boot after it gets to finish.
	if k, ok := recoveryCrashPoint(seed); ok && walMode {
		mid := openCrashStack(t, dir, durable, storage.CrashConfig{Seed: seed + 5555, TearWrites: tear}, walMode, k)
		if !mid.down {
			t.Logf("recovery finished within %d device operations", k)
		}
		mid.crash()
	}
	rec := openCrashStack(t, dir, durable, storage.CrashConfig{Seed: seed + 7777}, walMode, -1)
	verifyRecovered(t, rec, objs, snaps, maxXID, maxTS, seed, tear)
}

// recoveryCrashPoint decides from the seed alone whether the reboot after
// the workload's crash crashes again mid-recovery (one seed in four), and
// after how many device operations: replay's evictions through the sweep's
// 16-frame pool, the closing flush and the checkpoint all write.
func recoveryCrashPoint(seed int64) (int, bool) {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	if rng.Intn(4) != 0 {
		return 0, false
	}
	return rng.Intn(recoveryCrashSpan), true
}

// recoveryCrashSpan bounds the in-recovery crash point, in device
// operations. The sweep's recoveries take from a handful to a few dozen, so
// most points land inside one and the rest crash just after it.
const recoveryCrashSpan = 48

// crashSweepSeeds returns the sweep's seed list: CRASHSEED pins a single
// seed, CRASH widens the sweep (default 25 seeds).
func crashSweepSeeds(t *testing.T, base int64) []int64 {
	t.Helper()
	if v := os.Getenv("CRASHSEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad CRASHSEED %q: %v", v, err)
		}
		return []int64{n}
	}
	count := 25
	if v := os.Getenv("CRASH"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad CRASH %q", v)
		}
		count = n
	}
	seeds := make([]int64, count)
	for i := range seeds {
		seeds[i] = base + int64(i)
	}
	return seeds
}

// TestCrashRecovery is the randomized crash-recovery sweep. Each seed
// derives a workload, a crash point, and the oracle's expected committed
// state; the recovered database must match exactly.
func TestCrashRecovery(t *testing.T) {
	before := obs.Snapshot()
	t.Run("sweep", func(t *testing.T) {
		for _, seed := range crashSweepSeeds(t, 1) {
			seed := seed
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				t.Parallel()
				t.Run("mode=force", func(t *testing.T) {
					t.Parallel()
					runCrashSeed(t, seed, false, false)
				})
				t.Run("mode=wal", func(t *testing.T) {
					t.Parallel()
					runCrashSeed(t, seed, false, true)
				})
			})
		}
	})
	assertObsConservation(t, before)
}

// TestCrashRecoveryTornWrites repeats the sweep with torn-write simulation:
// the block in flight at the crash is torn at a PRNG-chosen byte offset.
// Committed objects must then either read back byte-identical or fail
// loudly (page checksums); silent corruption fails the seed.
func TestCrashRecoveryTornWrites(t *testing.T) {
	seeds := crashSweepSeeds(t, 100001)
	if len(seeds) > 1 {
		n := len(seeds) / 4
		if n < 6 {
			n = 6
		}
		if n > len(seeds) {
			n = len(seeds)
		}
		seeds = seeds[:n]
	}
	before := obs.Snapshot()
	t.Run("sweep", func(t *testing.T) {
		for _, seed := range seeds {
			seed := seed
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				t.Parallel()
				t.Run("mode=force", func(t *testing.T) {
					t.Parallel()
					runCrashSeed(t, seed, true, false)
				})
				t.Run("mode=wal", func(t *testing.T) {
					t.Parallel()
					runCrashSeed(t, seed, true, true)
				})
			})
		}
	})
	assertObsConservation(t, before)
}

// assertObsConservation checks the metrics registry's conservation laws over
// a whole (now quiescent) sweep. Crashes make the laws asymmetric in one
// place only: transactions open at the crash boundary never reach Commit or
// Abort, so begins bounds commits+aborts from above instead of equaling it.
// Pool and f-chunk accounting must balance exactly even across crashes,
// because their counters are paired on every exit path.
func assertObsConservation(t *testing.T, before obs.Snap) {
	t.Helper()
	after := obs.Snapshot()
	delta := func(name string) int64 { return after.CounterDelta(before, name) }
	if got, want := delta("pool.hits")+delta("pool.misses"), delta("pool.lookups"); got != want {
		t.Errorf("pool conservation: hits+misses = %d, lookups = %d", got, want)
	}
	finished, begins := delta("txn.commits")+delta("txn.aborts"), delta("txn.begins")
	if finished > begins {
		t.Errorf("txn conservation: commits+aborts = %d exceeds begins = %d", finished, begins)
	}
	if begins == 0 {
		t.Error("txn.begins did not move during the sweep")
	}
	if got, want := delta("lob.fchunk.read_bytes"), delta("lob.fchunk.chunk_read_bytes"); got != want {
		t.Errorf("fchunk conservation: read_bytes = %d, chunk_read_bytes = %d", got, want)
	}
}
