// Package core implements the paper's primary contribution: large objects as
// large abstract data types with a file-oriented interface (open, seek,
// read, write), in four interchangeable storage implementations (§6):
//
//   - u-file: a user-owned file whose path is stored in the database. Fast
//     and simple; no protection, no transactions, no time travel.
//   - p-file: a file allocated by the DBMS via NewFilename(), so only the
//     database writes it. Same guarantees otherwise.
//   - f-chunk: the object is cut into fixed-size chunks stored as records
//     (sequence-number, data) in a no-overwrite heap class with a B-tree on
//     the sequence number. Transactions and time travel come for free;
//     optional per-chunk compression through the type's conversion codec.
//   - v-segment: the object is a sequence of variable-length compressed
//     segments concatenated in an underlying chunk store, plus a segment
//     index (locn, length, byte-pointer) kept in its own no-overwrite class
//     with a B-tree on locn. The unit of compression is the segment, so any
//     compression ratio is reflected in stored size.
//
// Objects are named by adt.ObjectRef (an OID); the catalog records which
// implementation and codec each object uses. Temporary objects for function
// return values (§5) are created through Session, which garbage-collects
// them when the query context closes.
package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"postlob/internal/adt"
	"postlob/internal/btree"
	"postlob/internal/catalog"
	"postlob/internal/compress"
	"postlob/internal/heap"
	"postlob/internal/storage"
	"postlob/internal/txn"
	"postlob/internal/vclock"
)

// DefaultChunkSize is the f-chunk payload size: the paper's byte[8000],
// chosen so one record neatly fills an 8 KB page after headers, two fit when
// compression halves them, and only one fits at 30 % compression.
const DefaultChunkSize = 8000

// MaxSegmentSize bounds the data compressed as a single v-segment; larger
// writes are split into multiple segments.
const MaxSegmentSize = 64 * 1024

// Errors returned by the large-object layer.
var (
	ErrReadOnly   = errors.New("core: object opened read-only")
	ErrClosed     = errors.New("core: object is closed")
	ErrBadSeek    = errors.New("core: seek to negative offset")
	ErrNoTravel   = errors.New("core: implementation does not support time travel")
	ErrNoSuchType = errors.New("core: unknown large type")
)

// Object is the file-oriented large-object handle (§4): the application
// opens the object, seeks to any byte location, and reads or writes any
// number of bytes without buffering the whole value.
type Object interface {
	adt.LargeObject
	// Ref returns the object's name.
	Ref() adt.ObjectRef
	// Truncate cuts the object to length n (not supported by AsOf handles).
	Truncate(n int64) error
}

// Store manages large objects: creation, opening, deletion, temporaries.
type Store struct {
	pool   *heap.Pool
	cat    *catalog.Catalog
	reg    *adt.Registry
	btrees *btree.Cache

	// FilesDir is where p-files are allocated by NewFilename.
	filesDir string
	// Cost accounting (all optional).
	clock     *vclock.Clock
	cpu       compress.CPUModel
	fileModel storage.DeviceModel // models u-file/p-file native I/O

	defaultSM storage.ID
	chunkSize int

	pfileSeq atomic.Uint64
}

// Config configures a Store.
type Config struct {
	// FilesDir is the directory for DBMS-allocated p-files; required if
	// p-file objects are used.
	FilesDir string
	// DefaultSM is the storage manager used when a type or create option
	// does not name one.
	DefaultSM storage.ID
	// ChunkSize overrides DefaultChunkSize (tests and ablations).
	ChunkSize int
	// Clock receives modelled costs; nil disables accounting.
	Clock *vclock.Clock
	// CPU converts codec instruction counts to time.
	CPU compress.CPUModel
	// FileModel charges native-file I/O for u-file and p-file objects so
	// Figure 2's baselines are measured on the same virtual clock.
	FileModel storage.DeviceModel
}

// NewStore creates a large-object store over a heap pool, catalog, and type
// registry.
func NewStore(pool *heap.Pool, cat *catalog.Catalog, reg *adt.Registry, cfg Config) *Store {
	cs := cfg.ChunkSize
	if cs <= 0 {
		cs = DefaultChunkSize
	}
	return &Store{
		pool:      pool,
		cat:       cat,
		reg:       reg,
		btrees:    btree.NewCache(pool.Buf),
		filesDir:  cfg.FilesDir,
		clock:     cfg.Clock,
		cpu:       cfg.CPU,
		fileModel: cfg.FileModel,
		defaultSM: cfg.DefaultSM,
		chunkSize: cs,
	}
}

// Catalog returns the store's catalog.
func (s *Store) Catalog() *catalog.Catalog { return s.cat }

// Pool returns the heap pool (buffer pool + transaction manager) the store
// operates on, so sibling subsystems (the Inversion file system, the query
// executor) share its caches and visibility machinery.
func (s *Store) Pool() *heap.Pool { return s.pool }

// Btrees returns the shared B-tree handle cache. Every opener of an index
// relation must go through it: Tree.mu is the tree's only reader/writer
// exclusion, so private handles on one relation would race read descents
// against structural changes.
func (s *Store) Btrees() *btree.Cache { return s.btrees }

// Registry returns the store's type registry.
func (s *Store) Registry() *adt.Registry { return s.reg }

// DefaultSM returns the storage manager used when none is specified.
func (s *Store) DefaultSM() storage.ID { return s.defaultSM }

// CreateOptions control Create. Either TypeName names a registered large
// type (which supplies kind, codec, and storage manager), or Kind/Codec/SM
// are given explicitly.
type CreateOptions struct {
	// TypeName resolves kind, codec, and storage manager from the registry.
	TypeName string
	// Kind selects the implementation when TypeName is empty.
	Kind adt.StorageKind
	// Codec names the conversion routine pair ("", "fast", "tight").
	Codec string
	// SM selects the storage manager; ignored when TypeName is set.
	SM *storage.ID
	// Path is the user file for u-file objects (required for KindUFile).
	Path string
	// Temp marks the object temporary: it is garbage-collected by the
	// session that created it.
	Temp bool
	// ChunkSize overrides the store default for this object.
	ChunkSize int
}

// resolve merges options with the type registry.
func (s *Store) resolve(opts CreateOptions) (adt.StorageKind, string, storage.ID, string, error) {
	kind, codec, sm, typeName := opts.Kind, opts.Codec, s.defaultSM, ""
	if opts.SM != nil {
		sm = *opts.SM
	}
	if opts.TypeName != "" {
		t, err := s.reg.LargeTypeByName(opts.TypeName)
		if err != nil {
			return 0, "", 0, "", fmt.Errorf("%w: %v", ErrNoSuchType, err)
		}
		kind, sm, typeName = t.Kind, t.SM, t.Name
		if t.Codec != nil {
			codec = t.Codec.Name()
		}
	}
	if _, ok := compress.Lookup(codec); !ok {
		return 0, "", 0, "", fmt.Errorf("core: unknown codec %q", codec)
	}
	return kind, codec, sm, typeName, nil
}

// Create allocates a new large object and opens it for writing under tx.
// For u-file and p-file objects tx may be nil (they are not transactional —
// the drawback §6.1 describes).
func (s *Store) Create(tx *txn.Txn, opts CreateOptions) (adt.ObjectRef, Object, error) {
	kind, codec, sm, typeName, err := s.resolve(opts)
	if err != nil {
		return adt.ObjectRef{}, nil, err
	}
	oid, err := s.cat.AllocOID()
	if err != nil {
		return adt.ObjectRef{}, nil, err
	}
	meta := &catalog.LargeObjectMeta{
		OID:      oid,
		Kind:     kind,
		TypeName: typeName,
		Codec:    codec,
		SM:       sm,
		Temp:     opts.Temp,
	}
	switch kind {
	case adt.KindUFile:
		if opts.Path == "" {
			return adt.ObjectRef{}, nil, errors.New("core: u-file object needs a path")
		}
		meta.Path = opts.Path
		if err := s.ensureFile(opts.Path); err != nil {
			return adt.ObjectRef{}, nil, err
		}
	case adt.KindPFile:
		// The paper's two-step idiom calls newfilename() first and passes
		// the allocated name back in; otherwise allocate one here.
		path := opts.Path
		if path == "" {
			if path, err = s.NewFilename(); err != nil {
				return adt.ObjectRef{}, nil, err
			}
		}
		meta.Path = path
		if err := s.ensureFile(path); err != nil {
			return adt.ObjectRef{}, nil, err
		}
	case adt.KindFChunk:
		meta.DataRel = storage.RelName(fmt.Sprintf("lobj_%d_data", oid))
		meta.IdxRel = storage.RelName(fmt.Sprintf("lobj_%d_idx", oid))
		meta.ChunkSize = opts.ChunkSize
		if meta.ChunkSize <= 0 {
			meta.ChunkSize = s.chunkSize
		}
		if err := s.createFChunkStorage(tx, meta); err != nil {
			return adt.ObjectRef{}, nil, err
		}
	case adt.KindVSegment:
		// The byte store is itself an uncompressed f-chunk object.
		storeRef, _, err := s.Create(tx, CreateOptions{
			Kind: adt.KindFChunk, SM: &sm, Temp: opts.Temp, ChunkSize: opts.ChunkSize,
		})
		if err != nil {
			return adt.ObjectRef{}, nil, err
		}
		meta.StoreOID = catalog.OID(storeRef.OID)
		meta.SegRel = storage.RelName(fmt.Sprintf("lobj_%d_seg", oid))
		meta.SegIdxRel = storage.RelName(fmt.Sprintf("lobj_%d_segidx", oid))
		if err := s.createVSegmentStorage(tx, meta); err != nil {
			return adt.ObjectRef{}, nil, err
		}
	default:
		return adt.ObjectRef{}, nil, fmt.Errorf("core: unknown storage kind %v", kind)
	}
	if err := s.cat.PutObject(meta); err != nil {
		return adt.ObjectRef{}, nil, err
	}
	ref := adt.ObjectRef{OID: uint64(oid), TypeName: typeName}
	obj, err := s.open(tx, liveSnap(tx), ref, meta)
	if err != nil {
		return adt.ObjectRef{}, nil, err
	}
	return ref, obj, nil
}

// Open opens an existing object for reading and writing under tx.
func (s *Store) Open(tx *txn.Txn, ref adt.ObjectRef) (Object, error) {
	meta, err := s.cat.Object(catalog.OID(ref.OID))
	if err != nil {
		return nil, err
	}
	return s.open(tx, liveSnap(tx), ref, meta)
}

// OpenAsOf opens a read-only view of the object as it stood at timestamp
// ts. Only f-chunk and v-segment objects support time travel.
func (s *Store) OpenAsOf(ts txn.TS, ref adt.ObjectRef) (Object, error) {
	meta, err := s.cat.Object(catalog.OID(ref.OID))
	if err != nil {
		return nil, err
	}
	if meta.Kind == adt.KindUFile || meta.Kind == adt.KindPFile {
		return nil, fmt.Errorf("%w: %v", ErrNoTravel, meta.Kind)
	}
	return s.open(nil, txn.SnapshotAt(ts), ref, meta)
}

// liveSnap returns tx's visibility snapshot, or a zero live snapshot for
// file-kind opens that take no transaction.
func liveSnap(tx *txn.Txn) txn.Snapshot {
	if tx == nil {
		return txn.Snapshot{}
	}
	return tx.Snapshot()
}

// open hands the object the one visibility input every read takes: a
// snapshot. A live handle carries the transaction's snapshot; a time-travel
// handle carries a historical one. The object layer no longer distinguishes
// the two — which snapshot it was given IS the mode.
func (s *Store) open(tx *txn.Txn, snap txn.Snapshot, ref adt.ObjectRef, meta *catalog.LargeObjectMeta) (Object, error) {
	var (
		o   Object
		err error
	)
	switch meta.Kind {
	case adt.KindUFile, adt.KindPFile:
		o, err = s.openFileObject(ref, meta)
	case adt.KindFChunk:
		o, err = s.openFChunk(tx, snap, ref, meta)
	case adt.KindVSegment:
		o, err = s.openVSegment(tx, snap, ref, meta)
	default:
		return nil, fmt.Errorf("core: unknown storage kind %v", meta.Kind)
	}
	if err == nil {
		lobMetricsFor(meta.Kind).opens.Inc()
	}
	return o, err
}

// Unlink removes the object and its storage. For u-file objects only the
// catalog entry is dropped — the user owns the file.
func (s *Store) Unlink(ref adt.ObjectRef) error {
	meta, err := s.cat.Object(catalog.OID(ref.OID))
	if err != nil {
		return err
	}
	switch meta.Kind {
	case adt.KindUFile:
		// Leave the user's file alone.
	case adt.KindPFile:
		if err := os.Remove(meta.Path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("core: unlink p-file: %w", err)
		}
	case adt.KindFChunk:
		if err := s.dropFChunkStorage(meta); err != nil {
			return err
		}
	case adt.KindVSegment:
		if err := s.dropVSegmentStorage(meta); err != nil {
			return err
		}
		if err := s.Unlink(adt.ObjectRef{OID: uint64(meta.StoreOID)}); err != nil {
			return err
		}
	}
	return s.cat.DeleteObject(catalog.OID(ref.OID))
}

// NewFilename allocates a fresh DBMS-owned file name — the paper's
// newfilename() function (§6.2).
func (s *Store) NewFilename() (string, error) {
	if s.filesDir == "" {
		return "", errors.New("core: store has no files directory configured")
	}
	if err := os.MkdirAll(s.filesDir, 0o755); err != nil {
		return "", fmt.Errorf("core: %w", err)
	}
	n := s.pfileSeq.Add(1)
	for {
		path := filepath.Join(s.filesDir, fmt.Sprintf("pfile_%06d", n))
		if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
			return path, nil
		}
		n = s.pfileSeq.Add(1)
	}
}

func (s *Store) ensureFile(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return f.Close()
}

// StorageFootprint reports the bytes consumed by each component of a stored
// object — the rows of Figure 1.
type StorageFootprint struct {
	// Data is the chunk class (f-chunk) or underlying byte store
	// (v-segment), or the file size (u-file/p-file).
	Data int64
	// Index is the B-tree on chunk sequence numbers.
	Index int64
	// Map is the v-segment segment-index class (the "2-level map").
	Map int64
	// MapIndex is the B-tree on segment locations.
	MapIndex int64
}

// Total sums all components.
func (f StorageFootprint) Total() int64 { return f.Data + f.Index + f.Map + f.MapIndex }

// Footprint measures the storage used by an object.
func (s *Store) Footprint(ref adt.ObjectRef) (StorageFootprint, error) {
	meta, err := s.cat.Object(catalog.OID(ref.OID))
	if err != nil {
		return StorageFootprint{}, err
	}
	var fp StorageFootprint
	switch meta.Kind {
	case adt.KindUFile, adt.KindPFile:
		fi, err := os.Stat(meta.Path)
		if err != nil {
			return fp, fmt.Errorf("core: %w", err)
		}
		fp.Data = fi.Size()
	case adt.KindFChunk:
		if fp.Data, err = s.relSize(meta.SM, meta.DataRel); err != nil {
			return fp, err
		}
		if fp.Index, err = s.relSize(meta.SM, meta.IdxRel); err != nil {
			return fp, err
		}
	case adt.KindVSegment:
		inner, err := s.Footprint(adt.ObjectRef{OID: uint64(meta.StoreOID)})
		if err != nil {
			return fp, err
		}
		fp.Data = inner.Data
		fp.Index = inner.Index
		if fp.Map, err = s.relSize(meta.SM, meta.SegRel); err != nil {
			return fp, err
		}
		if fp.MapIndex, err = s.relSize(meta.SM, meta.SegIdxRel); err != nil {
			return fp, err
		}
	}
	return fp, nil
}

func (s *Store) relSize(sm storage.ID, rel storage.RelName) (int64, error) {
	n, err := s.pool.Buf.Rel(sm, rel).NBlocks()
	if err != nil {
		return 0, err
	}
	return int64(n) * 8192, nil
}

// Flush forces an object's relations (or file) to stable storage.
func (s *Store) Flush(ref adt.ObjectRef) error {
	meta, err := s.cat.Object(catalog.OID(ref.OID))
	if err != nil {
		return err
	}
	switch meta.Kind {
	case adt.KindUFile, adt.KindPFile:
		f, err := os.OpenFile(meta.Path, os.O_RDWR, 0)
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		defer f.Close()
		return f.Sync()
	case adt.KindFChunk:
		return s.flushRels(meta.SM, meta.DataRel, meta.IdxRel)
	case adt.KindVSegment:
		if err := s.Flush(adt.ObjectRef{OID: uint64(meta.StoreOID)}); err != nil {
			return err
		}
		return s.flushRels(meta.SM, meta.SegRel, meta.SegIdxRel)
	}
	return nil
}

// EvictFromPool flushes an object's pages out of the shared buffer pool and
// drops them, so the next access starts cold. The benchmark harness uses
// this between operations to measure device behaviour rather than cache
// residency. File-backed objects have no pool presence.
func (s *Store) EvictFromPool(ref adt.ObjectRef) error {
	meta, err := s.cat.Object(catalog.OID(ref.OID))
	if err != nil {
		return err
	}
	for _, rel := range []storage.RelName{meta.DataRel, meta.IdxRel, meta.SegRel, meta.SegIdxRel} {
		if rel == "" {
			continue
		}
		if err := s.pool.Buf.DropRel(meta.SM, rel, false); err != nil {
			return err
		}
	}
	if meta.StoreOID != 0 {
		return s.EvictFromPool(adt.ObjectRef{OID: uint64(meta.StoreOID)})
	}
	return nil
}

func (s *Store) flushRels(sm storage.ID, rels ...storage.RelName) error {
	for _, rel := range rels {
		if err := s.pool.Buf.FlushRel(sm, rel); err != nil {
			return err
		}
	}
	return nil
}

// chargeFileIO models native-file access costs for the u-file/p-file
// baselines: a seek when the access is not sequential plus transfer time.
func (s *Store) chargeFileIO(n int, sequential bool) {
	if s.fileModel.IsZero() || n <= 0 {
		return
	}
	d := time.Duration(n) * s.fileModel.PerByte
	if !sequential {
		d += s.fileModel.Seek
	}
	s.clock.Advance(d + s.fileModel.PerBlock)
}
