// Fixture for the lockorder analyzer: a stub of the real repl package
// under its package name, so the class names (repl.Receiver.chkMu level 0,
// repl.Receiver.mu in the replication-session level 14) land in the
// declared hierarchy.
package repl

import "sync"

type Receiver struct {
	chkMu sync.Mutex
	mu    sync.Mutex
}

// OkCheckpointOrder takes the outermost checkpoint lock before the session
// leaf, matching the declared order.
func (r *Receiver) OkCheckpointOrder() {
	r.chkMu.Lock()
	r.mu.Lock()
	r.mu.Unlock()
	r.chkMu.Unlock()
}

// BadCheckpointUnderSession acquires the outermost checkpoint lock while
// the session leaf is held, against the declared order.
func (r *Receiver) BadCheckpointUnderSession() {
	r.mu.Lock()
	r.chkMu.Lock() // want `lock-order: repl\.Receiver\.chkMu \(level 0\) acquired while holding repl\.Receiver\.mu \(level 14\), against the declared hierarchy`
	r.chkMu.Unlock()
	r.mu.Unlock()
}

// OkSessionLeaf touches session state bare, holding nothing else.
func (r *Receiver) OkSessionLeaf() {
	r.mu.Lock()
	r.mu.Unlock()
}
