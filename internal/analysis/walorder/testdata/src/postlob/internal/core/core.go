// Package core is a fixture proving the allowed cases produce no
// diagnostics: core may flush the pool and apply redo images, and Append*
// results that are kept (or Checkpoint results that are discarded — not an
// Append) are fine.
package core

import (
	"postlob/internal/buffer"
	"postlob/internal/storage"
	"postlob/internal/wal"
)

func checkpoint(p *buffer.Pool, l *wal.Log) error {
	if err := p.FlushAll(); err != nil { // allowed: core.Checkpoint is the one checkpoint body
		return err
	}
	if err := p.FlushRel(); err != nil { // allowed
		return err
	}
	lsn, err := l.AppendCommit(1, 2) // allowed: LSN kept and flushed
	if err != nil {
		return err
	}
	if err := l.Flush(lsn); err != nil {
		return err
	}
	if lazy, err := l.AppendAbort(3); err == nil { // allowed: LSN kept
		l.FlushLazy(lazy)
	}
	if _, err := l.Checkpoint(lsn, wal.CheckpointMeta{}); err != nil { // allowed: not an Append*
		return err
	}
	return nil
}

func redo(p *buffer.Pool) error {
	return p.ApplyRedoImage("rel", 7, nil) // allowed: core.Redo is the one redo dispatcher
}

func dropOld(p *buffer.Pool, mgr storage.Manager) error {
	if err := p.Unlink("old"); err != nil { // allowed: the pool's one unlink
		return err
	}
	return mgr.Unlink("old") // want `storage Unlink called from postlob/internal/core`
}
