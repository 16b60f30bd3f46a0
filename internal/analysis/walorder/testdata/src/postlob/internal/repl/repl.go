// Package repl is a fixture proving the replica may neither flush the pool
// itself — its checkpoint is core.Checkpoint — nor apply redo images itself:
// that goes through core.Redo.
package repl

import "postlob/internal/buffer"

func replay(p *buffer.Pool) error {
	return p.ApplyRedoImage("rel", 7, nil) // want `buffer\.Pool\.ApplyRedoImage called from postlob/internal/repl`
}

func checkpoint(p *buffer.Pool) error {
	return p.FlushAll() // want `buffer\.Pool\.FlushAll called from postlob/internal/repl`
}
