// Package repl is a fixture proving the replica may neither flush the pool
// itself — its checkpoint is core.Checkpoint — nor apply redo images itself:
// that goes through core.Redo — nor unlink storage itself: that goes
// through buffer.Pool.Unlink.
package repl

import (
	"postlob/internal/buffer"
	"postlob/internal/storage"
)

func replay(p *buffer.Pool) error {
	return p.ApplyRedoImage("rel", 7, nil) // want `buffer\.Pool\.ApplyRedoImage called from postlob/internal/repl`
}

func checkpoint(p *buffer.Pool) error {
	return p.FlushAll() // want `buffer\.Pool\.FlushAll called from postlob/internal/repl`
}

func wipe(p *buffer.Pool, mgr storage.Manager) error {
	if err := p.Unlink("rel"); err != nil {
		return err
	}
	return mgr.Unlink("stale") // want `storage Unlink called from postlob/internal/repl`
}
