// Package a holds walorder violations: pool flushes outside the checkpoint
// layers and wal.Append* calls whose LSN never reaches a Flush.
package a

import (
	"postlob/internal/buffer"
	"postlob/internal/wal"
)

func flushes(p *buffer.Pool) error {
	if err := p.FlushAll(); err != nil { // want `buffer\.Pool\.FlushAll called from a`
		return err
	}
	return p.FlushRel() // want `buffer\.Pool\.FlushRel called from a`
}

func redo(p *buffer.Pool) error {
	return p.ApplyRedoImage("rel", 0, nil) // want `buffer\.Pool\.ApplyRedoImage called from a`
}

func appends(l *wal.Log) error {
	l.AppendCommit(1, 2) // want `result of wal\.AppendCommit discarded`

	_, err := l.AppendAbort(3) // want `LSN result of wal\.AppendAbort assigned to the blank identifier`
	if err != nil {
		return err
	}

	go l.AppendPageImage(nil, 4)    // want `wal\.AppendPageImage in a go/defer statement`
	defer l.AppendPageImage(nil, 5) // want `wal\.AppendPageImage in a go/defer statement`

	lsn, err := l.AppendCommit(6, 7) // kept: no diagnostic
	if err != nil {
		return err
	}
	return l.Flush(lsn)
}
