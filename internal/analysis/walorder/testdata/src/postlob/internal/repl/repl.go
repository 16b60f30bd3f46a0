// Package repl is a fixture proving the replica's checkpoint may flush the
// pool (no diagnostic) while its replay may not apply redo images itself:
// that goes through core.Redo.
package repl

import "postlob/internal/buffer"

func replay(p *buffer.Pool) error {
	return p.ApplyRedoImage("rel", 7, nil) // want `buffer\.Pool\.ApplyRedoImage called from postlob/internal/repl`
}

func checkpoint(p *buffer.Pool) error {
	return p.FlushAll() // allowed: the replica checkpoint lives here
}
