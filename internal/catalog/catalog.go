// Package catalog implements the system catalogs: classes (heap relations
// with their schema and storage-manager binding), and the metadata record
// for every large object — which of the four implementations stores it,
// which conversion codec it uses, and the names of the relations or files
// that hold its bytes. The catalog is persisted as a single JSON document
// rewritten atomically on every mutation; the on-disk heap and index
// relations it points at are managed by their own packages.
package catalog

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"

	"postlob/internal/adt"
	"postlob/internal/storage"
)

// OID identifies a catalogued entity.
type OID uint64

// Errors returned by the catalog.
var (
	ErrClassExists = errors.New("catalog: class already exists")
	ErrNoClass     = errors.New("catalog: no such class")
	ErrNoObject    = errors.New("catalog: no such large object")
	ErrCorrupt     = errors.New("catalog: corrupt catalog file")
)

// Column describes one attribute of a class.
type Column struct {
	// Name is the attribute name.
	Name string `json:"name"`
	// Type is the type name: "int4", "text", "bool", "rect", or a
	// registered large type.
	Type string `json:"type"`
}

// IndexDef describes a secondary index on a class: a B-tree over the value
// of an expression — a plain column, or a function of one (the paper's §3
// "indexing BLOB values, or the results of functions invoked on BLOBs").
type IndexDef struct {
	// Name is the index name, unique within the class.
	Name string `json:"name"`
	// Expr is the canonical text of the indexed expression.
	Expr string `json:"expr"`
	// Rel is the B-tree's relation.
	Rel storage.RelName `json:"rel"`
}

// Class is a catalogued heap relation.
type Class struct {
	OID     OID             `json:"oid"`
	Name    string          `json:"name"`
	SM      storage.ID      `json:"sm"`
	Rel     storage.RelName `json:"rel"`
	Columns []Column        `json:"columns"`
	Indexes []IndexDef      `json:"indexes,omitempty"`
}

// ColumnIndex returns the position of the named column, or -1.
func (c *Class) ColumnIndex(name string) int {
	for i, col := range c.Columns {
		if col.Name == name {
			return i
		}
	}
	return -1
}

// LargeObjectMeta records where and how one large object is stored.
type LargeObjectMeta struct {
	OID      OID             `json:"oid"`
	Kind     adt.StorageKind `json:"kind"`
	TypeName string          `json:"type,omitempty"`
	Codec    string          `json:"codec,omitempty"`
	SM       storage.ID      `json:"sm"`
	Temp     bool            `json:"temp,omitempty"`

	// Path is the backing file for u-file and p-file objects.
	Path string `json:"path,omitempty"`
	// DataRel / IdxRel hold an f-chunk object's chunk class and its
	// sequence-number B-tree; ChunkSize is the object's fixed chunk payload
	// size in bytes.
	DataRel   storage.RelName `json:"dataRel,omitempty"`
	IdxRel    storage.RelName `json:"idxRel,omitempty"`
	ChunkSize int             `json:"chunkSize,omitempty"`
	// SegRel / SegIdxRel hold a v-segment object's segment-index class and
	// its location B-tree; StoreOID is the underlying f-chunk byte store.
	SegRel    storage.RelName `json:"segRel,omitempty"`
	SegIdxRel storage.RelName `json:"segIdxRel,omitempty"`
	StoreOID  OID             `json:"storeOID,omitempty"`
}

// Catalog is the in-memory catalog with optional file persistence. Lookups
// (Object, Class, listings) take the lock shared so concurrent readers never
// queue behind each other; anything that mutates state or saves to disk
// takes it exclusive.
type Catalog struct {
	mu   sync.RWMutex
	path string // "" = memory only

	state state // guarded by mu
}

// LargeTypeDef persists a "create large type" declaration. The conversion
// routines are named (codecs are registered implementations), so the
// definition survives restarts; user-defined *functions* are Go closures
// and must be re-registered by the application.
type LargeTypeDef struct {
	Name  string          `json:"name"`
	Kind  adt.StorageKind `json:"kind"`
	Codec string          `json:"codec,omitempty"`
	SM    storage.ID      `json:"sm"`
}

type state struct {
	// Version counts mutations; replication ships the catalog when it
	// changes, and a replica adopts the primary's version wholesale.
	Version uint64                   `json:"version,omitempty"`
	NextOID OID                      `json:"nextOID"`
	Classes map[string]*Class        `json:"classes"`
	Objects map[OID]*LargeObjectMeta `json:"objects"`
	Types   map[string]*LargeTypeDef `json:"types,omitempty"`
}

// NewMemory creates an unpersisted catalog, for tests and scratch databases.
func NewMemory() *Catalog {
	return &Catalog{state: emptyState()}
}

func emptyState() state {
	return state{
		NextOID: 16384, // user OIDs start high, like POSTGRES
		Classes: make(map[string]*Class),
		Objects: make(map[OID]*LargeObjectMeta),
		Types:   make(map[string]*LargeTypeDef),
	}
}

// Open loads the catalog at path, creating an empty one if absent.
func Open(path string) (*Catalog, error) {
	c := &Catalog{path: path, state: emptyState()}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return c, nil
	}
	if err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	if err := json.Unmarshal(data, &c.state); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if c.state.Classes == nil {
		c.state.Classes = make(map[string]*Class)
	}
	if c.state.Objects == nil {
		c.state.Objects = make(map[OID]*LargeObjectMeta)
	}
	if c.state.Types == nil {
		c.state.Types = make(map[string]*LargeTypeDef)
	}
	return c, nil
}

// PutLargeType persists a large type definition.
func (c *Catalog) PutLargeType(def LargeTypeDef) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	cp := def
	c.state.Types[def.Name] = &cp
	return c.saveLocked()
}

// LargeTypes lists persisted large type definitions sorted by name.
func (c *Catalog) LargeTypes() []LargeTypeDef {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]LargeTypeDef, 0, len(c.state.Types))
	for _, d := range c.state.Types {
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// saveLocked persists the catalog; caller holds c.mu exclusive. Every save
// is a mutation, so the version counter advances first — memory-only
// catalogs version too, which the replication sender relies on.
func (c *Catalog) saveLocked() error {
	c.state.Version++
	return c.writeLocked()
}

// writeLocked persists the current state verbatim; caller holds c.mu
// exclusive.
func (c *Catalog) writeLocked() error {
	if c.path == "" {
		return nil
	}
	data, err := json.MarshalIndent(&c.state, "", " ")
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	if err := storage.ReplaceFile(c.path, data, false); err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	return nil
}

// Version returns the catalog's mutation counter.
func (c *Catalog) Version() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.state.Version
}

// Export returns the catalog state as its persisted JSON document plus the
// version it carries — the unit replication ships.
func (c *Catalog) Export() ([]byte, uint64, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	data, err := json.MarshalIndent(&c.state, "", " ")
	if err != nil {
		return nil, 0, fmt.Errorf("catalog: %w", err)
	}
	return data, c.state.Version, nil
}

// ImportState replaces the catalog wholesale with an exported document and
// persists it, keeping the exporter's version (no bump: a replica's catalog
// version mirrors the primary's). Imports of an older or equal version are
// ignored, so a reconnect replaying an earlier snapshot cannot roll the
// catalog back.
func (c *Catalog) ImportState(data []byte) error {
	var st state
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if st.Classes == nil {
		st.Classes = make(map[string]*Class)
	}
	if st.Objects == nil {
		st.Objects = make(map[OID]*LargeObjectMeta)
	}
	if st.Types == nil {
		st.Types = make(map[string]*LargeTypeDef)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if st.Version <= c.state.Version && c.state.Version != 0 {
		return nil
	}
	c.state = st
	return c.writeLocked()
}

// AllocOID hands out a fresh OID.
func (c *Catalog) AllocOID() (OID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	oid := c.state.NextOID
	c.state.NextOID++
	return oid, c.saveLocked()
}

// CreateClass registers a class and returns it with a fresh OID and a
// derived relation name.
func (c *Catalog) CreateClass(name string, sm storage.ID, cols []Column) (*Class, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.state.Classes[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrClassExists, name)
	}
	oid := c.state.NextOID
	c.state.NextOID++
	cl := &Class{
		OID:     oid,
		Name:    name,
		SM:      sm,
		Rel:     storage.RelName(fmt.Sprintf("class_%d", oid)),
		Columns: append([]Column(nil), cols...),
	}
	c.state.Classes[name] = cl
	return cl, c.saveLocked()
}

// Class looks up a class by name.
func (c *Catalog) Class(name string) (*Class, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cl, ok := c.state.Classes[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoClass, name)
	}
	return cl, nil
}

// Classes lists all classes sorted by name.
func (c *Catalog) Classes() []*Class {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Class, 0, len(c.state.Classes))
	for _, cl := range c.state.Classes {
		out = append(out, cl)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// DropClass removes a class entry (the caller drops the storage).
func (c *Catalog) DropClass(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.state.Classes[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNoClass, name)
	}
	delete(c.state.Classes, name)
	return c.saveLocked()
}

// AddIndex records a new index on a class, allocating its relation name.
func (c *Catalog) AddIndex(className, indexName, expr string) (*IndexDef, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cl, ok := c.state.Classes[className]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoClass, className)
	}
	for _, idx := range cl.Indexes {
		if idx.Name == indexName {
			return nil, fmt.Errorf("catalog: index %s already exists on %s", indexName, className)
		}
	}
	oid := c.state.NextOID
	c.state.NextOID++
	def := IndexDef{
		Name: indexName,
		Expr: expr,
		Rel:  storage.RelName(fmt.Sprintf("index_%d", oid)),
	}
	cl.Indexes = append(cl.Indexes, def)
	return &def, c.saveLocked()
}

// PutObject registers or updates a large object's metadata.
func (c *Catalog) PutObject(m *LargeObjectMeta) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	cp := *m
	c.state.Objects[m.OID] = &cp
	return c.saveLocked()
}

// Object looks up a large object by OID.
func (c *Catalog) Object(oid OID) (*LargeObjectMeta, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.state.Objects[oid]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoObject, oid)
	}
	cp := *m
	return &cp, nil
}

// DeleteObject removes a large object's metadata.
func (c *Catalog) DeleteObject(oid OID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.state.Objects[oid]; !ok {
		return fmt.Errorf("%w: %d", ErrNoObject, oid)
	}
	delete(c.state.Objects, oid)
	return c.saveLocked()
}

// Objects lists large-object metadata sorted by OID. With tempsOnly, only
// temporaries are returned (used by end-of-query garbage collection).
func (c *Catalog) Objects(tempsOnly bool) []*LargeObjectMeta {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*LargeObjectMeta, 0, len(c.state.Objects))
	for _, m := range c.state.Objects {
		if tempsOnly && !m.Temp {
			continue
		}
		cp := *m
		out = append(out, &cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].OID < out[j].OID })
	return out
}
