// Package inversion implements the Inversion file system (paper §8):
// conventional files supported on top of database large ADTs. Because the
// file system lives above the DBMS, files inherit security, transactions,
// compression, and time travel, and the file-system metadata is ordinary
// class data that the query language can search.
//
// The directory tree lives in three classes:
//
//	STORAGE   (file-id, large-object)
//	DIRECTORY (file-name, file-id, parent-file-id, is-dir)
//	FILESTAT  (file-id, owner, mode, mtime, ctime)
//
// each with a B-tree index. Standard file-system calls (read, write, seek)
// turn into large-object operations; everything else is class operations on
// the metadata.
package inversion

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"

	"postlob/internal/adt"
	"postlob/internal/btree"
	"postlob/internal/catalog"
	"postlob/internal/core"
	"postlob/internal/heap"
	"postlob/internal/storage"
	"postlob/internal/txn"
)

// Class and index names.
const (
	ClassDirectory = "DIRECTORY"
	ClassStorage   = "STORAGE"
	ClassFilestat  = "FILESTAT"

	relDirIdx  storage.RelName = "inv_directory_idx"
	relStorIdx storage.RelName = "inv_storage_idx"
	relStatIdx storage.RelName = "inv_filestat_idx"
)

// RootID is the file-id of the root directory.
const RootID = 1

// Errors returned by the file system.
var (
	ErrNotExist   = errors.New("inversion: no such file or directory")
	ErrExist      = errors.New("inversion: file exists")
	ErrNotDir     = errors.New("inversion: not a directory")
	ErrIsDir      = errors.New("inversion: is a directory")
	ErrNotEmpty   = errors.New("inversion: directory not empty")
	ErrBadPath    = errors.New("inversion: bad path")
	ErrReadOnly   = errors.New("inversion: historical view is read-only")
	ErrRootLocked = errors.New("inversion: cannot modify the root directory")
)

// Options configure which large-object implementation backs new files.
type Options struct {
	// Kind is the implementation for file contents; f-chunk and v-segment
	// give transactional, time-travelling files.
	Kind adt.StorageKind
	// Codec names the compression conversion routines ("", "fast", "tight").
	Codec string
	// SM is the storage manager for the metadata classes and file objects.
	SM storage.ID
	// Owner is recorded in FILESTAT for files this handle creates.
	Owner string
}

// FS is an open Inversion file system.
type FS struct {
	store *core.Store
	pool  *heap.Pool
	opts  Options

	dir  *heap.Relation
	stor *heap.Relation
	stat *heap.Relation

	dirIdx  *btree.Tree
	storIdx *btree.Tree
	statIdx *btree.Tree
}

// Init opens the Inversion file system inside the store's database,
// creating the metadata classes and the root directory on first use. The
// bootstrap happens under tx.
func Init(tx *txn.Txn, store *core.Store, opts Options) (*FS, error) {
	return open(tx, store, opts)
}

// OpenReadOnly opens an already-initialised Inversion file system without
// a transaction. Replicas — which cannot begin local transactions — use
// this to serve snapshot reads over metadata replicated from the primary.
// It fails with ErrNotInit if the metadata classes do not exist yet.
func OpenReadOnly(store *core.Store, opts Options) (*FS, error) {
	return open(nil, store, opts)
}

// ErrNotInit reports an OpenReadOnly against a database whose Inversion
// classes have not been created (the primary has not run Init yet).
var ErrNotInit = errors.New("inversion: file system not initialised")

func open(tx *txn.Txn, store *core.Store, opts Options) (*FS, error) {
	cat := store.Catalog()
	fs := &FS{store: store, pool: store.Pool(), opts: opts}

	fresh := false
	dirClass, err := cat.Class(ClassDirectory)
	if errors.Is(err, catalog.ErrNoClass) {
		if tx == nil {
			return nil, ErrNotInit
		}
		fresh = true
		if dirClass, err = cat.CreateClass(ClassDirectory, opts.SM, []catalog.Column{
			{Name: "file-name", Type: "text"},
			{Name: "file-id", Type: "int4"},
			{Name: "parent-file-id", Type: "int4"},
			{Name: "is-dir", Type: "bool"},
		}); err != nil {
			return nil, err
		}
	} else if err != nil {
		return nil, err
	}
	storClass, err := fs.ensureClass(cat, ClassStorage, fresh, []catalog.Column{
		{Name: "file-id", Type: "int4"},
		{Name: "large-object", Type: "large-object"},
	})
	if err != nil {
		return nil, err
	}
	statClass, err := fs.ensureClass(cat, ClassFilestat, fresh, []catalog.Column{
		{Name: "file-id", Type: "int4"},
		{Name: "owner", Type: "text"},
		{Name: "mode", Type: "int4"},
		{Name: "mtime", Type: "int4"},
		{Name: "ctime", Type: "int4"},
	})
	if err != nil {
		return nil, err
	}

	open := heap.Open
	mk := btree.Open
	if fresh {
		open = heap.Create
		mk = btree.Create
	}
	if fs.dir, err = open(fs.pool, opts.SM, dirClass.Rel); err != nil {
		return nil, err
	}
	if fs.stor, err = open(fs.pool, opts.SM, storClass.Rel); err != nil {
		return nil, err
	}
	if fs.stat, err = open(fs.pool, opts.SM, statClass.Rel); err != nil {
		return nil, err
	}
	cfg := btree.Config{}
	if fs.dirIdx, err = mk(fs.pool.Buf, opts.SM, relDirIdx, cfg); err != nil {
		return nil, err
	}
	if fs.storIdx, err = mk(fs.pool.Buf, opts.SM, relStorIdx, cfg); err != nil {
		return nil, err
	}
	if fs.statIdx, err = mk(fs.pool.Buf, opts.SM, relStatIdx, cfg); err != nil {
		return nil, err
	}
	if fresh {
		// Root directory: file-id 1, parent 0, empty name.
		if err := fs.insertDirent(tx, 0, RootID, "", true); err != nil {
			return nil, err
		}
		if err := fs.insertStat(tx, RootID); err != nil {
			return nil, err
		}
	}
	return fs, nil
}

func (fs *FS) ensureClass(cat *catalog.Catalog, name string, fresh bool, cols []catalog.Column) (*catalog.Class, error) {
	if fresh {
		return cat.CreateClass(name, fs.opts.SM, cols)
	}
	return cat.Class(name)
}

// --- row helpers -------------------------------------------------------------

func dirKey(parent uint64, name string) uint64 {
	h := fnv.New32a()
	h.Write([]byte(name))
	return parent<<32 | uint64(h.Sum32())
}

func dirParentRange(parent uint64) (lo, hi uint64) {
	return parent << 32, parent<<32 | 0xFFFFFFFF
}

type dirent struct {
	name   string
	id     uint64
	parent uint64
	isDir  bool
}

func direntRow(d dirent) []byte {
	return adt.EncodeRow([]adt.Value{
		adt.Text(d.name), adt.Int(int64(d.id)), adt.Int(int64(d.parent)), adt.Bool(d.isDir),
	})
}

func decodeDirent(data []byte) (dirent, error) {
	row, err := adt.DecodeRow(data)
	if err != nil || len(row) != 4 {
		return dirent{}, fmt.Errorf("inversion: bad DIRECTORY row: %v", err)
	}
	return dirent{
		name:   row[0].Str,
		id:     uint64(row[1].Int),
		parent: uint64(row[2].Int),
		isDir:  row[3].Bool,
	}, nil
}

func (fs *FS) insertDirent(tx *txn.Txn, parent, id uint64, name string, isDir bool) error {
	tid, err := fs.dir.Insert(tx, direntRow(dirent{name: name, id: id, parent: parent, isDir: isDir}))
	if err != nil {
		return err
	}
	return fs.dirIdx.Insert(dirKey(parent, name), heap.EncodeTID(tid))
}

func (fs *FS) insertStat(tx *txn.Txn, id uint64) error {
	now := int64(tx.ID())
	row := adt.EncodeRow([]adt.Value{
		adt.Int(int64(id)), adt.Text(fs.opts.Owner), adt.Int(0o644), adt.Int(now), adt.Int(now),
	})
	tid, err := fs.stat.Insert(tx, row)
	if err != nil {
		return err
	}
	return fs.statIdx.Insert(id, heap.EncodeTID(tid))
}

func (fs *FS) insertStorage(tx *txn.Txn, id uint64, ref adt.ObjectRef) error {
	row := adt.EncodeRow([]adt.Value{adt.Int(int64(id)), adt.Object(ref)})
	tid, err := fs.stor.Insert(tx, row)
	if err != nil {
		return err
	}
	return fs.storIdx.Insert(id, heap.EncodeTID(tid))
}

// --- views: current vs historical ----------------------------------------------

// view parameterises metadata access by visibility mode.
type view struct {
	fs   *FS
	tx   *txn.Txn
	ts   txn.TS
	asOf bool
}

func (v view) fetch(rel *heap.Relation, tid heap.TID) ([]byte, error) {
	if v.asOf {
		return rel.FetchAsOf(v.ts, tid)
	}
	return rel.Fetch(v.tx, tid)
}

func notVisible(err error) bool {
	return errors.Is(err, heap.ErrNotVisible) || errors.Is(err, heap.ErrNoTuple)
}

// lookupChild finds the visible directory entry (parent, name).
func (v view) lookupChild(parent uint64, name string) (dirent, heap.TID, bool, error) {
	vals, err := v.fs.dirIdx.Lookup(dirKey(parent, name))
	if err != nil {
		return dirent{}, heap.InvalidTID, false, err
	}
	for i := len(vals) - 1; i >= 0; i-- {
		tid := heap.DecodeTID(vals[i])
		data, err := v.fetch(v.fs.dir, tid)
		if err != nil {
			if notVisible(err) {
				continue
			}
			return dirent{}, heap.InvalidTID, false, err
		}
		d, err := decodeDirent(data)
		if err != nil {
			return dirent{}, heap.InvalidTID, false, err
		}
		// Hash collisions are possible; verify.
		if d.parent == parent && d.name == name {
			return d, tid, true, nil
		}
	}
	return dirent{}, heap.InvalidTID, false, nil
}

// splitPath normalises and splits an absolute slash path.
func splitPath(path string) ([]string, error) {
	if path == "" || path[0] != '/' {
		return nil, fmt.Errorf("%w: %q (must be absolute)", ErrBadPath, path)
	}
	var parts []string
	for _, p := range strings.Split(path, "/") {
		switch p {
		case "", ".":
		case "..":
			return nil, fmt.Errorf("%w: %q (no dot-dot)", ErrBadPath, path)
		default:
			parts = append(parts, p)
		}
	}
	return parts, nil
}

// resolve walks the path and returns its entry.
func (v view) resolve(path string) (dirent, error) {
	parts, err := splitPath(path)
	if err != nil {
		return dirent{}, err
	}
	cur := dirent{id: RootID, isDir: true}
	for i, p := range parts {
		if !cur.isDir {
			return dirent{}, fmt.Errorf("%w: %s", ErrNotDir, strings.Join(parts[:i], "/"))
		}
		next, _, ok, err := v.lookupChild(cur.id, p)
		if err != nil {
			return dirent{}, err
		}
		if !ok {
			return dirent{}, fmt.Errorf("%w: %s", ErrNotExist, path)
		}
		cur = next
	}
	return cur, nil
}

// resolveParent returns the directory that should contain path's last
// component, plus that component's name.
func (v view) resolveParent(path string) (dirent, string, error) {
	parts, err := splitPath(path)
	if err != nil {
		return dirent{}, "", err
	}
	if len(parts) == 0 {
		return dirent{}, "", fmt.Errorf("%w: %q names the root", ErrBadPath, path)
	}
	dirPath := "/" + strings.Join(parts[:len(parts)-1], "/")
	parent, err := v.resolve(dirPath)
	if err != nil {
		return dirent{}, "", err
	}
	if !parent.isDir {
		return dirent{}, "", fmt.Errorf("%w: %s", ErrNotDir, dirPath)
	}
	return parent, parts[len(parts)-1], nil
}

// storageRef returns the large object backing a file id.
func (v view) storageRef(id uint64) (adt.ObjectRef, heap.TID, error) {
	vals, err := v.fs.storIdx.Lookup(id)
	if err != nil {
		return adt.ObjectRef{}, heap.InvalidTID, err
	}
	for i := len(vals) - 1; i >= 0; i-- {
		tid := heap.DecodeTID(vals[i])
		data, err := v.fetch(v.fs.stor, tid)
		if err != nil {
			if notVisible(err) {
				continue
			}
			return adt.ObjectRef{}, heap.InvalidTID, err
		}
		row, err := adt.DecodeRow(data)
		if err != nil || len(row) != 2 {
			return adt.ObjectRef{}, heap.InvalidTID, fmt.Errorf("inversion: bad STORAGE row: %v", err)
		}
		if uint64(row[0].Int) == id {
			return row[1].Obj, tid, nil
		}
	}
	return adt.ObjectRef{}, heap.InvalidTID, fmt.Errorf("%w: no storage for file-id %d", ErrNotExist, id)
}

// statRow returns a file's FILESTAT values.
func (v view) statRow(id uint64) ([]adt.Value, heap.TID, error) {
	vals, err := v.fs.statIdx.Lookup(id)
	if err != nil {
		return nil, heap.InvalidTID, err
	}
	for i := len(vals) - 1; i >= 0; i-- {
		tid := heap.DecodeTID(vals[i])
		data, err := v.fetch(v.fs.stat, tid)
		if err != nil {
			if notVisible(err) {
				continue
			}
			return nil, heap.InvalidTID, err
		}
		row, err := adt.DecodeRow(data)
		if err != nil || len(row) != 5 {
			return nil, heap.InvalidTID, fmt.Errorf("inversion: bad FILESTAT row: %v", err)
		}
		if uint64(row[0].Int) == id {
			return row, tid, nil
		}
	}
	return nil, heap.InvalidTID, fmt.Errorf("%w: no stat for file-id %d", ErrNotExist, id)
}

// --- public operations -----------------------------------------------------------

// Mkdir creates a directory.
func (fs *FS) Mkdir(tx *txn.Txn, path string) error {
	v := view{fs: fs, tx: tx}
	parent, name, err := v.resolveParent(path)
	if err != nil {
		return err
	}
	if _, _, ok, err := v.lookupChild(parent.id, name); err != nil {
		return err
	} else if ok {
		return fmt.Errorf("%w: %s", ErrExist, path)
	}
	id, err := fs.store.Catalog().AllocOID()
	if err != nil {
		return err
	}
	if err := fs.insertDirent(tx, parent.id, uint64(id), name, true); err != nil {
		return err
	}
	return fs.insertStat(tx, uint64(id))
}

// Create makes a new file and returns an open handle on it.
func (fs *FS) Create(tx *txn.Txn, path string) (*File, error) {
	v := view{fs: fs, tx: tx}
	parent, name, err := v.resolveParent(path)
	if err != nil {
		return nil, err
	}
	if _, _, ok, err := v.lookupChild(parent.id, name); err != nil {
		return nil, err
	} else if ok {
		return nil, fmt.Errorf("%w: %s", ErrExist, path)
	}
	id, err := fs.store.Catalog().AllocOID()
	if err != nil {
		return nil, err
	}
	ref, obj, err := fs.store.Create(tx, core.CreateOptions{
		Kind: fs.opts.Kind, Codec: fs.opts.Codec, SM: &fs.opts.SM,
	})
	if err != nil {
		return nil, err
	}
	if err := fs.insertDirent(tx, parent.id, uint64(id), name, false); err != nil {
		return nil, err
	}
	if err := fs.insertStorage(tx, uint64(id), ref); err != nil {
		return nil, err
	}
	if err := fs.insertStat(tx, uint64(id)); err != nil {
		return nil, err
	}
	return &File{fs: fs, v: v, id: uint64(id), name: name, obj: obj}, nil
}

// Open opens an existing file for reading and writing under tx.
func (fs *FS) Open(tx *txn.Txn, path string) (*File, error) {
	v := view{fs: fs, tx: tx}
	return fs.openView(v, path)
}

// OpenAsOf opens a read-only view of the file as it stood at ts —
// fine-grained time travel over file contents (§8).
func (fs *FS) OpenAsOf(ts txn.TS, path string) (*File, error) {
	v := view{fs: fs, ts: ts, asOf: true}
	return fs.openView(v, path)
}

func (fs *FS) openView(v view, path string) (*File, error) {
	d, err := v.resolve(path)
	if err != nil {
		return nil, err
	}
	if d.isDir {
		return nil, fmt.Errorf("%w: %s", ErrIsDir, path)
	}
	ref, _, err := v.storageRef(d.id)
	if err != nil {
		return nil, err
	}
	var obj core.Object
	if v.asOf {
		obj, err = fs.store.OpenAsOf(v.ts, ref)
	} else {
		obj, err = fs.store.Open(v.tx, ref)
	}
	if err != nil {
		return nil, err
	}
	return &File{fs: fs, v: v, id: d.id, name: d.name, obj: obj}, nil
}

// DirEntry is one ReadDir result.
type DirEntry struct {
	Name   string
	FileID uint64
	IsDir  bool
}

// ReadDir lists a directory's visible entries sorted by name.
func (fs *FS) ReadDir(tx *txn.Txn, path string) ([]DirEntry, error) {
	return fs.readDir(view{fs: fs, tx: tx}, path)
}

// ReadDirAsOf lists a directory as it stood at ts.
func (fs *FS) ReadDirAsOf(ts txn.TS, path string) ([]DirEntry, error) {
	return fs.readDir(view{fs: fs, ts: ts, asOf: true}, path)
}

func (fs *FS) readDir(v view, path string) ([]DirEntry, error) {
	d, err := v.resolve(path)
	if err != nil {
		return nil, err
	}
	if !d.isDir {
		return nil, fmt.Errorf("%w: %s", ErrNotDir, path)
	}
	lo, hi := dirParentRange(d.id)
	var out []DirEntry
	err = fs.dirIdx.Range(lo, hi, func(k, val uint64) (bool, error) {
		tid := heap.DecodeTID(val)
		data, err := v.fetch(fs.dir, tid)
		if err != nil {
			if notVisible(err) {
				return true, nil
			}
			return false, err
		}
		e, err := decodeDirent(data)
		if err != nil {
			return false, err
		}
		if e.parent == d.id {
			out = append(out, DirEntry{Name: e.name, FileID: e.id, IsDir: e.isDir})
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// FileInfo is a Stat result.
type FileInfo struct {
	Name   string
	FileID uint64
	IsDir  bool
	Size   int64
	Owner  string
	Mode   int64
	MTime  int64
	CTime  int64
}

// Stat returns file metadata.
func (fs *FS) Stat(tx *txn.Txn, path string) (FileInfo, error) {
	return fs.statView(view{fs: fs, tx: tx}, path)
}

// StatAsOf returns file metadata as of ts.
func (fs *FS) StatAsOf(ts txn.TS, path string) (FileInfo, error) {
	return fs.statView(view{fs: fs, ts: ts, asOf: true}, path)
}

func (fs *FS) statView(v view, path string) (FileInfo, error) {
	d, err := v.resolve(path)
	if err != nil {
		return FileInfo{}, err
	}
	info := FileInfo{Name: d.name, FileID: d.id, IsDir: d.isDir}
	row, _, err := v.statRow(d.id)
	if err != nil {
		return FileInfo{}, err
	}
	info.Owner, info.Mode, info.MTime, info.CTime = row[1].Str, row[2].Int, row[3].Int, row[4].Int
	if !d.isDir {
		ref, _, err := v.storageRef(d.id)
		if err != nil {
			return FileInfo{}, err
		}
		var obj core.Object
		if v.asOf {
			obj, err = fs.store.OpenAsOf(v.ts, ref)
		} else {
			obj, err = fs.store.Open(v.tx, ref)
		}
		if err != nil {
			return FileInfo{}, err
		}
		info.Size, err = obj.Size()
		obj.Close()
		if err != nil {
			return FileInfo{}, err
		}
	}
	return info, nil
}

// Remove deletes a file or an empty directory. The metadata rows are
// deleted no-overwrite style and the object's storage is retained, so
// historical views of the file keep working.
func (fs *FS) Remove(tx *txn.Txn, path string) error {
	v := view{fs: fs, tx: tx}
	parent, name, err := v.resolveParent(path)
	if err != nil {
		return err
	}
	d, tid, ok, err := v.lookupChild(parent.id, name)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	if d.isDir {
		children, err := fs.ReadDir(tx, path)
		if err != nil {
			return err
		}
		if len(children) > 0 {
			return fmt.Errorf("%w: %s", ErrNotEmpty, path)
		}
	}
	if err := fs.dir.Delete(tx, tid); err != nil {
		return err
	}
	if !d.isDir {
		if _, stid, err := v.storageRef(d.id); err == nil {
			if err := fs.stor.Delete(tx, stid); err != nil {
				return err
			}
		}
	}
	if _, stid, err := v.statRow(d.id); err == nil {
		if err := fs.stat.Delete(tx, stid); err != nil {
			return err
		}
	}
	return nil
}

// RemoveAll removes path and, for directories, everything beneath it.
// Removing a missing path is not an error, matching os.RemoveAll.
func (fs *FS) RemoveAll(tx *txn.Txn, path string) error {
	v := view{fs: fs, tx: tx}
	d, err := v.resolve(path)
	if errors.Is(err, ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if d.id == RootID {
		return ErrRootLocked
	}
	if d.isDir {
		children, err := fs.ReadDir(tx, path)
		if err != nil {
			return err
		}
		for _, c := range children {
			if err := fs.RemoveAll(tx, joinPath(path, c.Name)); err != nil {
				return err
			}
		}
	}
	return fs.Remove(tx, path)
}

// Walk visits path and everything beneath it depth-first, calling fn with
// each entry's full path and metadata. fn errors abort the walk.
func (fs *FS) Walk(tx *txn.Txn, path string, fn func(path string, info FileInfo) error) error {
	info, err := fs.Stat(tx, path)
	if err != nil {
		return err
	}
	if err := fn(path, info); err != nil {
		return err
	}
	if !info.IsDir {
		return nil
	}
	entries, err := fs.ReadDir(tx, path)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := fs.Walk(tx, joinPath(path, e.Name), fn); err != nil {
			return err
		}
	}
	return nil
}

func joinPath(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}

// Rename moves a file or directory to a new path.
func (fs *FS) Rename(tx *txn.Txn, oldPath, newPath string) error {
	v := view{fs: fs, tx: tx}
	oldParent, oldName, err := v.resolveParent(oldPath)
	if err != nil {
		return err
	}
	d, tid, ok, err := v.lookupChild(oldParent.id, oldName)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, oldPath)
	}
	newParent, newName, err := v.resolveParent(newPath)
	if err != nil {
		return err
	}
	if _, _, exists, err := v.lookupChild(newParent.id, newName); err != nil {
		return err
	} else if exists {
		return fmt.Errorf("%w: %s", ErrExist, newPath)
	}
	if err := fs.dir.Delete(tx, tid); err != nil {
		return err
	}
	return fs.insertDirent(tx, newParent.id, d.id, newName, d.isDir)
}

// FileHistory lists the commit timestamps at which a file's contents
// changed — each one a valid OpenAsOf target. The underlying large object
// keeps every version (no-overwrite), so this is a metadata walk.
func (fs *FS) FileHistory(tx *txn.Txn, path string) ([]txn.TS, error) {
	v := view{fs: fs, tx: tx}
	d, err := v.resolve(path)
	if err != nil {
		return nil, err
	}
	if d.isDir {
		return nil, fmt.Errorf("%w: %s", ErrIsDir, path)
	}
	ref, _, err := v.storageRef(d.id)
	if err != nil {
		return nil, err
	}
	return fs.store.ObjectHistory(ref)
}

// WriteFile creates (or truncates) path with the given contents.
func (fs *FS) WriteFile(tx *txn.Txn, path string, data []byte) error {
	f, err := fs.Create(tx, path)
	if errors.Is(err, ErrExist) {
		if f, err = fs.Open(tx, path); err == nil {
			err = f.Truncate(0)
		}
	}
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile returns the whole contents of path.
func (fs *FS) ReadFile(tx *txn.Txn, path string) ([]byte, error) {
	f, err := fs.Open(tx, path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// --- File -------------------------------------------------------------------------

// File is an open Inversion file: a large-object handle plus metadata
// bookkeeping. Reads and writes are the underlying large-object operations.
type File struct {
	fs    *FS
	v     view
	id    uint64
	name  string
	obj   core.Object
	wrote bool
}

// Name returns the file's base name.
func (f *File) Name() string { return f.name }

// FileID returns the file's identifier.
func (f *File) FileID() uint64 { return f.id }

// Ref returns the object reference backing the file's contents, so callers
// can stream the body through the store's raw-extent path.
func (f *File) Ref() adt.ObjectRef { return f.obj.Ref() }

// Read implements io.Reader.
func (f *File) Read(p []byte) (int, error) { return f.obj.Read(p) }

// Write implements io.Writer.
func (f *File) Write(p []byte) (int, error) {
	if f.v.asOf {
		return 0, ErrReadOnly
	}
	n, err := f.obj.Write(p)
	if n > 0 {
		f.wrote = true
	}
	return n, err
}

// Seek implements io.Seeker.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	return f.obj.Seek(offset, whence)
}

// Size returns the file's length.
func (f *File) Size() (int64, error) { return f.obj.Size() }

// Truncate cuts the file to n bytes.
func (f *File) Truncate(n int64) error {
	if f.v.asOf {
		return ErrReadOnly
	}
	f.wrote = true
	return f.obj.Truncate(n)
}

// Close flushes the handle; if the file was written, its FILESTAT mtime is
// bumped (a new no-overwrite version of the stat row).
func (f *File) Close() error {
	if err := f.obj.Close(); err != nil {
		return err
	}
	if !f.wrote || f.v.asOf {
		return nil
	}
	row, tid, err := f.v.statRow(f.id)
	if err != nil {
		return err
	}
	row[3] = adt.Int(int64(f.v.tx.ID()))
	newTID, err := f.fs.stat.Replace(f.v.tx, tid, adt.EncodeRow(row))
	if err != nil {
		return err
	}
	return f.fs.statIdx.Insert(f.id, heap.EncodeTID(newTID))
}
