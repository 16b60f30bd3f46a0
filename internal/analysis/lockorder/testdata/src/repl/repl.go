// Fixture for the lockorder analyzer: a stub of the real repl package
// under its package name, so the class names (repl.Receiver.mu and
// repl.Receiver.ctlMu, both in the replication-session level) land in the
// declared hierarchy.
package repl

import "sync"

type Receiver struct {
	mu    sync.Mutex
	ctlMu sync.Mutex
}

// OkSessionLeaf touches session state bare, holding nothing else.
func (r *Receiver) OkSessionLeaf() {
	r.mu.Lock()
	r.mu.Unlock()
}

// OkCtlLeaf writes the resume position bare, holding nothing else.
func (r *Receiver) OkCtlLeaf() {
	r.ctlMu.Lock()
	r.ctlMu.Unlock()
}
