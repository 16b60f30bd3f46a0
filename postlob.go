// Package postlob is a from-scratch Go reproduction of "Large Object
// Support in POSTGRES" (Stonebraker & Olson, ICDE 1993): large objects as
// large abstract data types with a file-oriented interface, four
// interchangeable storage implementations (u-file, p-file, f-chunk,
// v-segment), user-defined storage managers (magnetic disk, main memory,
// WORM optical jukebox), user-defined functions and operators over large
// ADTs, temporary-object garbage collection, and the Inversion file system
// built on top of it all.
//
// Quick start:
//
//	db, _ := postlob.Open(dir, postlob.Options{})
//	defer db.Close()
//	tx := db.Begin()
//	ref, obj, _ := db.LargeObjects().Create(tx, postlob.CreateOptions{Kind: postlob.FChunk})
//	obj.Write([]byte("gigabytes welcome"))
//	obj.Close()
//	tx.Commit()
//
// See the examples/ directory for the paper's scenarios.
package postlob

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"postlob/internal/adt"
	"postlob/internal/buffer"
	"postlob/internal/catalog"
	"postlob/internal/compress"
	"postlob/internal/core"
	"postlob/internal/gateway"
	"postlob/internal/heap"
	"postlob/internal/inversion"
	"postlob/internal/obs"
	"postlob/internal/query"
	"postlob/internal/repl"
	"postlob/internal/storage"
	"postlob/internal/txn"
	"postlob/internal/vclock"
	"postlob/internal/wal"
)

// Durability selects how commits reach stable storage.
type Durability int

const (
	// DurabilityCheckpoint (the default) makes durability checkpoint-
	// grained: commits are visible immediately but survive a crash only
	// once a Checkpoint has run — the cheapest mode, and the one the
	// paper's performance study measures. Commit followed by Checkpoint is
	// the POSTGRES force-at-commit discipline. Without a log, a kill while a
	// transaction has evicted pages can leave committed objects unreadable.
	DurabilityCheckpoint Durability = iota
	// DurabilityWAL appends physical page images and a commit record to a
	// write-ahead log; commit returns once the group-commit flusher has
	// made the record durable. Crash recovery replays the log on Open.
	DurabilityWAL
)

// Re-exported types so applications rarely import internals directly.
type (
	// Txn is a database transaction.
	Txn = txn.Txn
	// TS is a commit timestamp usable for time travel.
	TS = txn.TS
	// ObjectRef names a stored large object.
	ObjectRef = adt.ObjectRef
	// Object is the file-oriented large-object handle.
	Object = core.Object
	// CreateOptions control large-object creation.
	CreateOptions = core.CreateOptions
	// StorageKind selects a large-object implementation.
	StorageKind = adt.StorageKind
	// Value is a query datum.
	Value = adt.Value
	// Result is a query result; Close it to collect temporaries.
	Result = query.Result
	// LargeType declares a large abstract data type.
	LargeType = adt.LargeType
	// Func is a user-defined function registration.
	Func = adt.Func
	// CallContext is passed to user-defined functions.
	CallContext = adt.CallContext
	// FSOptions configure the Inversion file system.
	FSOptions = inversion.Options
	// GatewayOptions configure the streaming network edge.
	GatewayOptions = gateway.Options
	// Gateway is the streaming multi-protocol front door (chunked v2 wire
	// protocol + S3-style HTTP object API).
	Gateway = gateway.Gateway
	// FS is the Inversion file system.
	FS = inversion.FS
	// DirEntry is one Inversion directory listing entry.
	DirEntry = inversion.DirEntry
	// FileInfo is an Inversion stat result.
	FileInfo = inversion.FileInfo
	// File is an open Inversion file.
	File = inversion.File
	// DeviceModel parameterises virtual device costs.
	DeviceModel = storage.DeviceModel
	// WormConfig parameterises the optical jukebox simulation.
	WormConfig = storage.WormConfig
	// WormModel is the jukebox device cost model.
	WormModel = storage.WormModel
	// CPUModel converts codec instruction counts to virtual time.
	CPUModel = compress.CPUModel
	// Clock accumulates modelled time for the performance study.
	Clock = vclock.Clock
	// StorageFootprint is a Figure 1 style size breakdown.
	StorageFootprint = core.StorageFootprint
)

// The four large-object implementations (paper §6).
const (
	UFile    = adt.KindUFile
	PFile    = adt.KindPFile
	FChunk   = adt.KindFChunk
	VSegment = adt.KindVSegment
)

// Built-in storage manager IDs (paper §7).
const (
	Disk = storage.Disk
	Mem  = storage.Mem
	Worm = storage.Worm
)

// Options configure Open.
type Options struct {
	// BufferPoolPages sizes the shared buffer pool (default 1024 pages).
	BufferPoolPages int
	// DefaultSM is the storage manager used when unspecified (default Disk).
	DefaultSM *storage.ID
	// ChunkSize overrides the 8000-byte f-chunk payload (tests/ablations).
	ChunkSize int

	// Clock, when set, receives modelled device and codec costs; the
	// benchmark harness uses it to report era-calibrated elapsed times.
	Clock *vclock.Clock
	// DiskModel charges magnetic-disk costs for DB page I/O.
	DiskModel storage.DeviceModel
	// FileModel charges native-file costs for u-file/p-file objects.
	FileModel storage.DeviceModel
	// WormConfig, when non-nil, registers the WORM jukebox manager.
	WormConfig *storage.WormConfig
	// CPU converts compression instruction counts to virtual time.
	CPU compress.CPUModel

	// Durability selects the commit discipline: checkpoint-grained (the
	// zero value) or write-ahead logging with group commit. A durability
	// failure at commit is returned from tx.Commit.
	Durability Durability
	// WALSegBlocks overrides the WAL segment size in 8 KiB blocks
	// (default 256). Only consulted under DurabilityWAL.
	WALSegBlocks int

	// WrapStorage, when set, wraps each built-in storage manager as it is
	// registered. The crash-simulation and fault-injection tests use it to
	// interpose storage.CrashManager or storage.FaultManager under a real
	// database; returning mgr unchanged is always safe.
	WrapStorage func(id storage.ID, mgr storage.Manager) storage.Manager

	// AutoVacuum, when non-nil, starts the online vacuum daemon with the
	// given options: a background goroutine that periodically reclaims
	// versions no live snapshot can see (aborted debris always; superseded
	// committed versions too when ReclaimHistory is set). nil means off —
	// manual DB.Vacuum and the POSTGRES time-travel default. The daemon can
	// also be started and stopped at runtime via StartVacuum/StopVacuum.
	AutoVacuum *VacuumOptions

	// ReplicaOf, when non-empty, opens the database as a read-only
	// streaming replica of the WAL primary whose stream gateway listens
	// at that address (see NewGateway): a receiver
	// continuously replays the shipped log into the local pool, reads are
	// served from local pages through time-travel snapshots, and writes
	// are refused (Begin panics, the gateway rejects mutating ops).
	// Promote ends replication and makes the database writable.
	ReplicaOf string
	// ReplicaName identifies this replica in the primary's replication
	// slots and diagnostics (default: the base name of dir).
	ReplicaName string
	// ReplCheckpointEvery overrides the replica's checkpoint interval in
	// applied WAL bytes (default 4 MiB). A testing knob: small values
	// exercise the crash-resume path hard.
	ReplCheckpointEvery uint64

	// BackgroundWriter controls the buffer pool's background I/O engine: a
	// writer goroutine that cleans cold dirty frames ahead of demand (so
	// foreground evictions almost never write back) and a prefetcher that
	// services sequential-scan read-ahead windows with batched device reads.
	// nil means enabled — the default. Point at false to fall back to the
	// do-the-I/O-in-the-caller discipline; deterministic harnesses (crash
	// sweeps) want that, everything else wants the engine.
	BackgroundWriter *bool
}

// DB is an open database.
type DB struct {
	dir    string
	sw     *storage.Switch
	pool   *heap.Pool
	cat    *catalog.Catalog
	reg    *adt.Registry
	store  *core.Store
	engine *query.Engine
	clock  *vclock.Clock
	wlog   *wal.Log

	vacMu sync.Mutex // guards vac across StartVacuum/StopVacuum/Close
	vac   *core.VacuumDaemon

	replica atomic.Bool // read-only streaming replica (until Promote)
	recv    *repl.Receiver
	sender  atomic.Pointer[repl.Sender] // nil unless the database has a WAL
}

// VacuumOptions configures the online vacuum daemon; see core.VacuumOptions.
type VacuumOptions = core.VacuumOptions

// Open opens (or creates) a database rooted at dir.
func Open(dir string, opts Options) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("postlob: %w", err)
	}
	frames := opts.BufferPoolPages
	if frames <= 0 {
		frames = 1024
	}
	wrap := opts.WrapStorage
	if wrap == nil {
		wrap = func(_ storage.ID, mgr storage.Manager) storage.Manager { return mgr }
	}
	sw := storage.NewSwitch()
	disk, err := storage.NewDiskManager(filepath.Join(dir, "data"), opts.DiskModel, opts.Clock)
	if err != nil {
		return nil, err
	}
	sw.Register(storage.Disk, wrap(storage.Disk, disk))
	sw.Register(storage.Mem, wrap(storage.Mem, storage.NewMemManager(storage.DeviceModel{}, opts.Clock)))
	if opts.WormConfig != nil {
		cfg := *opts.WormConfig
		if cfg.Clock == nil {
			cfg.Clock = opts.Clock
		}
		worm, err := storage.NewWormManager(filepath.Join(dir, "worm"), cfg)
		if err != nil {
			return nil, err
		}
		sw.Register(storage.Worm, wrap(storage.Worm, worm))
	}

	logPath := filepath.Join(dir, "pg_log")
	var mgr *txn.Manager
	if _, err := os.Stat(logPath); err == nil {
		if mgr, err = txn.Load(logPath); err != nil {
			return nil, err
		}
	} else {
		mgr = txn.NewManager()
	}
	// Checkpoints save the commit log here, and XIDs are reserved in it
	// before they are handed out, so a crash can never lead to a lost
	// transaction's XID being recycled.
	mgr.SetLogPath(logPath)

	mode := opts.Durability
	if opts.ReplicaOf != "" {
		// A replica has no write-ahead log of its own: its durability is the
		// replicated stream plus checkpoint-grained persistence of what it
		// has applied (pg_repl_ctl).
		mode = DurabilityCheckpoint
	}
	// Redo recovery replays the log through the pool before the catalog or
	// anything else reads it, and ends with the ordinary checkpoint. The log
	// is opened whenever one exists on disk — even if this Open does not ask
	// for WAL mode — so a database last closed uncleanly in WAL mode is
	// always repaired.
	diskMgr, err := sw.Get(storage.Disk)
	if err != nil {
		return nil, err
	}
	pool := &heap.Pool{Buf: buffer.NewPool(frames, sw, opts.Clock), Mgr: mgr}
	var wlog *wal.Log
	if mode == DurabilityWAL || diskMgr.Exists("pg_wal_ctl") {
		wlog, err = wal.Open(diskMgr, wal.Config{SegBlocks: opts.WALSegBlocks})
		if err != nil {
			return nil, err
		}
		if err := core.Recover(pool, wlog); err != nil {
			return nil, err
		}
		if mode != DurabilityWAL {
			if err := wlog.Close(); err != nil {
				return nil, err
			}
			wlog = nil
		}
	}

	cat, err := catalog.Open(filepath.Join(dir, "catalog.json"))
	if err != nil {
		return nil, err
	}

	defaultSM := storage.Disk
	if opts.DefaultSM != nil {
		defaultSM = *opts.DefaultSM
	}
	reg := adt.NewRegistry()
	store := core.NewStore(pool, cat, reg, core.Config{
		FilesDir:  filepath.Join(dir, "pfiles"),
		DefaultSM: defaultSM,
		ChunkSize: opts.ChunkSize,
		Clock:     opts.Clock,
		CPU:       opts.CPU,
		FileModel: opts.FileModel,
	})
	db := &DB{
		dir:    dir,
		sw:     sw,
		pool:   pool,
		cat:    cat,
		reg:    reg,
		store:  store,
		engine: query.New(store),
		clock:  opts.Clock,
		wlog:   wlog,
	}
	if wlog != nil {
		core.AttachWAL(pool, wlog)
	}
	// The engine starts after AttachWAL so its write-backs honor the flush
	// ceiling from the first round, and before any workload runs.
	if opts.BackgroundWriter == nil || *opts.BackgroundWriter {
		pool.Buf.StartEngine(buffer.EngineConfig{})
	}
	// Reload persisted large type definitions into the registry.
	for _, def := range cat.LargeTypes() {
		codec, ok := compress.Lookup(def.Codec)
		if !ok {
			return nil, fmt.Errorf("postlob: type %q uses unknown codec %q", def.Name, def.Codec)
		}
		if err := reg.CreateLargeType(adt.LargeType{
			Name: def.Name, Kind: def.Kind, Codec: codec, SM: def.SM,
		}); err != nil {
			return nil, err
		}
	}
	if opts.ReplicaOf != "" {
		// Replica: replay is the only writer, so no vacuum daemon and no
		// orphan-temp GC (both mutate state the stream owns). Reads are
		// served through time-travel snapshots against the replayed pages.
		db.replica.Store(true)
		name := opts.ReplicaName
		if name == "" {
			name = filepath.Base(dir)
		}
		recv, err := repl.StartReceiver(repl.ReceiverConfig{
			Primary:         opts.ReplicaOf,
			Name:            name,
			Dir:             dir,
			Pool:            pool,
			Cat:             cat,
			CheckpointEvery: opts.ReplCheckpointEvery,
		})
		if err != nil {
			return nil, err
		}
		db.recv = recv
		return db, nil
	}
	if opts.AutoVacuum != nil {
		db.vac = store.StartVacuum(*opts.AutoVacuum)
	}
	// Crash recovery for temporaries left by dead sessions (§5).
	if _, err := store.GCOrphanTemps(); err != nil {
		return nil, err
	}
	if wlog != nil {
		db.sender.Store(repl.NewSender(wlog, pool.Buf, mgr, cat))
	}
	return db, nil
}

// CreateLargeType registers a large ADT and persists its definition —
// the Go-API equivalent of the `create large type` statement.
func (db *DB) CreateLargeType(t LargeType) error {
	if err := db.reg.CreateLargeType(t); err != nil {
		return err
	}
	codec := ""
	if t.Codec != nil {
		codec = t.Codec.Name()
	}
	return db.cat.PutLargeType(catalog.LargeTypeDef{
		Name: t.Name, Kind: t.Kind, Codec: codec, SM: t.SM,
	})
}

// Begin starts a transaction. Under DurabilityWAL the transaction manager's
// durability log (wired at Open) makes its commit record durable before
// Commit returns; otherwise the commit is durable once a Checkpoint has run
// after it, and Commit followed by Checkpoint forces it at once.
//
// Panics if the database is a read-only replica: local transactions would
// allocate XIDs that collide with the primary's replayed stream. Use
// time-travel reads (Now + OpenAsOf) on a replica, or Promote it first.
func (db *DB) Begin() *Txn {
	if db.replica.Load() {
		panic("postlob: Begin on a read-only replica (Promote it, or read via OpenAsOf)")
	}
	return db.pool.Mgr.Begin()
}

// RunInTxn executes fn in a transaction, committing on success.
func (db *DB) RunInTxn(fn func(*Txn) error) error {
	return txn.RunInTxn(db.pool.Mgr, fn)
}

// Now returns the latest commit timestamp, for time-travel reads of the
// current state.
func (db *DB) Now() TS { return db.pool.Mgr.Now() }

// Exec runs one POSTQUEL statement under tx.
func (db *DB) Exec(tx *Txn, statement string) (*Result, error) {
	return db.engine.Exec(tx, statement)
}

// Let binds a free query variable (the paper's newfilename idiom).
func (db *DB) Let(name string, v Value) { db.engine.Let(name, v) }

// LargeObjects returns the large-object store.
func (db *DB) LargeObjects() *core.Store { return db.store }

// Registry returns the type/function/operator registry for extending the
// system with new large types, functions, and operators.
func (db *DB) Registry() *adt.Registry { return db.reg }

// Catalog returns the system catalog.
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// StorageSwitch exposes the storage-manager switch so user-defined managers
// can be registered (§7).
func (db *DB) StorageSwitch() *storage.Switch { return db.sw }

// Inversion opens (or bootstraps) the Inversion file system in this
// database.
func (db *DB) Inversion(opts FSOptions) (*FS, error) {
	var fs *FS
	err := db.RunInTxn(func(tx *Txn) error {
		var err error
		fs, err = inversion.Init(tx, db.store, opts)
		return err
	})
	return fs, err
}

// NewGateway builds the network edge that exposes this database to remote
// clients: one chunk-granular core behind two protocol frontends.
// Gateway.ServeStream speaks the pipelined stream protocol
// (internal/client's DialStream), where remote large-object reads ship
// stored compressed extents and are decompressed client-side (§3's
// just-in-time conversion); Gateway.HTTPHandler serves the S3-style object
// API over the Inversion file system. The gateway asks the database what it
// is at each use: on a replica it is read-only — GETs and snapshot stream
// reads are served locally, mutations refused at the edge — and on a WAL
// primary the stream frontend also hands replicas (Options.ReplicaOf) to
// the WAL sender. A gateway built before a Promote serves writes and
// replicas after it.
func (db *DB) NewGateway(opts GatewayOptions) *Gateway {
	gw := gateway.New(db.store, opts)
	gw.SetRole(dbRole{db})
	return gw
}

// dbRole is the gateway.Role of a database.
type dbRole struct{ db *DB }

func (r dbRole) ReadOnly() bool { return r.db.replica.Load() }

func (r dbRole) Replicator() func(net.Conn) {
	if s := r.db.sender.Load(); s != nil {
		return s.Handle
	}
	return nil
}

// Checkpoint metrics, registered once at package init. System-wide metrics
// (buffer pool, storage managers, per-implementation traffic, RPC latency)
// live in internal/obs; see ObsSnapshot.
var (
	obsCheckpoints   = obs.NewCounter("db.checkpoints")
	obsCheckpointDur = obs.NewTimer("db.checkpoint_duration")
)

// ObsSnapshot returns a point-in-time copy of every metric in the process-
// wide observability registry (counters, gauges, latency histograms, recent
// spans). Unlike Stats — which reports this DB's buffer pool — the obs
// registry aggregates across every open database in the process; it is what
// the `\stats` shell command and the lobjserve /metrics endpoint render.
func ObsSnapshot() obs.Snap { return obs.Snapshot() }

// Stats is a snapshot of cache behaviour, for observability and the
// benchmark analyses.
type Stats struct {
	// BufferHits / BufferMisses count shared buffer pool lookups.
	BufferHits   int64
	BufferMisses int64
	// WormCacheHits / WormCacheMisses count the jukebox's magnetic-disk
	// block cache (zero unless a WORM manager is registered).
	WormCacheHits   int64
	WormCacheMisses int64
	// VirtualElapsed is the modelled device/CPU time accumulated on the
	// database clock, when one was configured.
	VirtualElapsed time.Duration
	// WALDurableLSN / WALEndLSN / WALSegments describe the write-ahead
	// log (all zero unless the database is open in DurabilityWAL mode):
	// the LSN through which the log is durable, the append position, and
	// the number of live segments.
	WALDurableLSN uint64
	WALEndLSN     uint64
	WALSegments   uint64
	// ReplAppliedLSN / ReplDurableLSN are a replica's stream positions:
	// what it has applied in memory and what it has persisted (both zero
	// on a non-replica). On an idle primary, WALEndLSN minus a connected
	// replica's ReplAppliedLSN converges to zero — the lag conservation
	// law the replication tests assert.
	ReplAppliedLSN uint64
	ReplDurableLSN uint64
}

// Stats returns current cache and clock counters.
func (db *DB) Stats() Stats {
	s := Stats{VirtualElapsed: db.clock.Now()}
	s.BufferHits, s.BufferMisses = db.pool.Buf.Stats()
	if db.wlog != nil {
		info := db.wlog.Stats()
		s.WALDurableLSN = uint64(info.Durable)
		s.WALEndLSN = uint64(info.End)
		s.WALSegments = info.Seg - info.FirstSeg + 1
	}
	if db.recv != nil {
		s.ReplAppliedLSN = db.recv.Applied()
		s.ReplDurableLSN = db.recv.Durable()
	}
	if mgr, err := db.sw.Get(storage.Worm); err == nil {
		if w, ok := mgr.(*storage.WormManager); ok {
			s.WormCacheHits, s.WormCacheMisses = w.CacheStats()
		}
	}
	return s
}

// Vacuum reclaims space in every class and large-object relation: debris
// from aborted transactions always goes; with keepHistory false, superseded
// committed versions go too — surrendering time travel for space, the
// trade POSTGRES's vacuum cleaner offered. Returns tuples removed. The
// online vacuum daemon runs this same pass.
func (db *DB) Vacuum(keepHistory bool) (int, error) {
	return db.store.Vacuum(keepHistory)
}

// StartVacuum starts the online vacuum daemon at runtime. Returns an error
// if one is already running.
func (db *DB) StartVacuum(opts VacuumOptions) error {
	db.vacMu.Lock()
	defer db.vacMu.Unlock()
	if db.vac != nil {
		return fmt.Errorf("postlob: vacuum daemon already running")
	}
	db.vac = db.store.StartVacuum(opts)
	return nil
}

// StopVacuum halts the online vacuum daemon, if one is running, and returns
// the first error any of its background rounds hit. A no-op otherwise.
func (db *DB) StopVacuum() error {
	db.vacMu.Lock()
	v := db.vac
	db.vac = nil
	db.vacMu.Unlock()
	if v == nil {
		return nil
	}
	return v.Stop()
}

// Checkpoint flushes all dirty pages, syncs every relation the pool has
// touched — class relations and large-object relations alike — and only
// then saves the commit log, with the commits made before the flush began
// (core.Checkpoint): the log is never written ahead of the data it
// describes. Under DurabilityWAL the checkpoint is also the log-truncation
// point: segments wholly below the new redo point are dropped.
func (db *DB) Checkpoint() error {
	sw := obsCheckpointDur.Start()
	defer sw.Stop()
	if db.recv != nil {
		// Replica: the same checkpoint, then the applied stream position
		// is persisted — the receiver owns that ordering.
		return db.recv.Checkpoint()
	}
	if err := core.Checkpoint(db.pool, db.wlog); err != nil {
		return err
	}
	obsCheckpoints.Inc()
	return nil
}

// Close checkpoints and shuts the database down.
func (db *DB) Close() error {
	// Stop streaming to replicas before the log closes underneath the
	// sender; replicas see a dropped connection and reconnect elsewhere in
	// time (or to this database's next incarnation).
	if s := db.sender.Load(); s != nil {
		s.Close()
	}
	// Quiesce the daemons first: the closing checkpoint must see a stable
	// dirty set, and StopEngine surfaces any sticky async write-back error.
	if err := db.StopVacuum(); err != nil {
		return err
	}
	db.pool.Buf.StopEngine()
	if db.recv != nil {
		// Replica: stop the stream; Stop's closing checkpoint persists the
		// applied position, replacing the primary-style checkpoint below.
		if err := db.recv.Stop(); err != nil {
			return err
		}
	} else if err := db.Checkpoint(); err != nil {
		return err
	}
	if db.wlog != nil {
		if err := db.wlog.Close(); err != nil {
			return err
		}
	}
	return db.sw.Close()
}

// IsReplica reports whether this database is (still) a read-only replica.
func (db *DB) IsReplica() bool { return db.replica.Load() }

// WaitReplicaReady blocks until the replica has applied everything the
// primary had durable when it connected — the point after which reads see a
// complete, torn-page-free state — or the timeout. An error on a
// non-replica.
func (db *DB) WaitReplicaReady(d time.Duration) error {
	if db.recv == nil {
		return fmt.Errorf("postlob: not a replica")
	}
	return db.recv.WaitReady(d)
}

// Promote ends replication and turns the replica into a standalone writable
// database: the receiver stops (persisting everything applied), the stale
// replication control file is removed so a later mis-configured reopen
// cannot resume a dead timeline, and a fresh write-ahead log is attached so
// the promoted database runs with the same durability discipline as the
// primary it replaces, with a sender that serves replicas of its own. The
// transaction counters were advanced by every replayed commit, so new
// transactions allocate fresh XIDs past the primary's history. Gateways
// built before Promote serve writes and replicas after it.
func (db *DB) Promote() error {
	if !db.replica.Load() {
		return fmt.Errorf("postlob: Promote on a non-replica")
	}
	if err := db.recv.Stop(); err != nil {
		return err
	}
	db.recv = nil
	if err := os.Remove(filepath.Join(db.dir, repl.CtlFile)); err != nil && !os.IsNotExist(err) {
		return err
	}
	diskMgr, err := db.sw.Get(storage.Disk)
	if err != nil {
		return err
	}
	// The log is brand new — there is nothing to recover — but attaching it
	// re-establishes the primary durability contract from the receiver's
	// final checkpoint onward.
	wlog, err := wal.Open(diskMgr, wal.Config{})
	if err != nil {
		return err
	}
	db.wlog = wlog
	core.AttachWAL(db.pool, wlog)
	db.sender.Store(repl.NewSender(wlog, db.pool.Buf, db.pool.Mgr, db.cat))
	db.replica.Store(false)
	// Run the orphan-temp sweep the replica open skipped: the promoted
	// database now owns its temporaries.
	if _, err := db.store.GCOrphanTemps(); err != nil {
		return err
	}
	return nil
}
