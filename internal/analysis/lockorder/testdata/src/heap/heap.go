// Fixture for the lockorder analyzer: a stub of the real heap package under
// its package name, so the class names (heap.Pool.CkptMu level 0,
// heap.Pool.relMu level 3) land in the declared hierarchy.
package heap

import "sync"

type Pool struct {
	CkptMu sync.Mutex
	relMu  sync.Mutex
}

// OkCheckpointOrder takes the outermost checkpoint lock before the
// relation-cache lock, matching the declared order.
func (p *Pool) OkCheckpointOrder() {
	p.CkptMu.Lock()
	p.relMu.Lock()
	p.relMu.Unlock()
	p.CkptMu.Unlock()
}

// BadCheckpointUnderRelCache acquires the outermost checkpoint lock while
// the relation-cache lock is held, against the declared order.
func (p *Pool) BadCheckpointUnderRelCache() {
	p.relMu.Lock()
	p.CkptMu.Lock() // want `lock-order: heap\.Pool\.CkptMu \(level 0\) acquired while holding heap\.Pool\.relMu \(level 3\), against the declared hierarchy`
	p.CkptMu.Unlock()
	p.relMu.Unlock()
}
