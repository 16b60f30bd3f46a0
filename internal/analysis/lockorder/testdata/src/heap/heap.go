// Fixture for the lockorder analyzer: a stub of the real heap package under
// its package name, so the class names (heap.Pool.CkptMu level 0,
// heap.Relation.mu level 3) land in the declared hierarchy.
package heap

import "sync"

type Pool struct {
	CkptMu sync.Mutex
}

type Relation struct {
	pool *Pool
	mu   sync.RWMutex
}

// OkCheckpointOrder takes the outermost checkpoint lock before a relation
// lock, matching the declared order.
func (r *Relation) OkCheckpointOrder() {
	r.pool.CkptMu.Lock()
	r.mu.Lock()
	r.mu.Unlock()
	r.pool.CkptMu.Unlock()
}

// BadCheckpointUnderRelation acquires the outermost checkpoint lock while a
// relation lock is held, against the declared order.
func (r *Relation) BadCheckpointUnderRelation() {
	r.mu.Lock()
	r.pool.CkptMu.Lock() // want `lock-order: heap\.Pool\.CkptMu \(level 0\) acquired while holding heap\.Relation\.mu \(level 3\), against the declared hierarchy`
	r.pool.CkptMu.Unlock()
	r.mu.Unlock()
}
