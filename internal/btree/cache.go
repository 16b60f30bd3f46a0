package btree

import (
	"sync"

	"postlob/internal/buffer"
	"postlob/internal/storage"
)

// Cache shares one Tree handle per (storage manager, relation name).
//
// Tree.mu is the tree's entire reader/writer exclusion: read descents and
// scans deliberately take no frame content latches (only mutators do, so
// write-back cannot tear a node), which means two private handles on the
// same relation would race read descents against structural changes. Every
// opener must therefore share the instance, exactly as heap.Pool shares
// Relation handles. The first opener's Config wins for the lifetime of the
// handle.
type Cache struct {
	buf *buffer.Pool

	mu    sync.Mutex // guards trees
	trees map[cacheKey]*Tree
}

type cacheKey struct {
	sm   storage.ID
	name storage.RelName
}

// NewCache returns an empty handle cache over buf.
func NewCache(buf *buffer.Pool) *Cache {
	return &Cache{buf: buf, trees: make(map[cacheKey]*Tree)}
}

// Open returns the shared handle for (sm, name), validating the relation on
// first use. A cached handle whose relation the buffer pool has since
// dropped (a replica's redo of an unlink, or its wipe before a base backup)
// is replaced by one on the relation the name now resolves to.
func (c *Cache) Open(sm storage.ID, name storage.RelName, cfg Config) (*Tree, error) {
	key := cacheKey{sm, name}
	c.mu.Lock()
	t := c.trees[key]
	c.mu.Unlock()
	if t != nil && !t.rel.Dropped() {
		return t, nil
	}
	// The metapage check reads through the buffer pool; do it outside the
	// cache lock, and let a racing opener's install win.
	t, err := Open(c.buf, sm, name, cfg)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev := c.trees[key]; prev != nil && !prev.rel.Dropped() {
		return prev, nil
	}
	t.cache = c
	c.trees[key] = t
	return t, nil
}

// Create creates the relation and installs the shared handle.
func (c *Cache) Create(sm storage.ID, name storage.RelName, cfg Config) (*Tree, error) {
	t, err := Create(c.buf, sm, name, cfg)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t.cache = c
	c.trees[cacheKey{sm, name}] = t
	return t, nil
}

// forget drops the cached handle (called by Tree.Drop).
func (c *Cache) forget(sm storage.ID, name storage.RelName) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.trees, cacheKey{sm, name})
}
