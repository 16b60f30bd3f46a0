// Package wal is a fixture stub standing in for postlob/internal/wal: the
// walorder analyzer matches Append* calls by import path and name prefix, so
// only the shapes of the signatures matter here.
package wal

type LSN uint64

type Log struct{}

func (l *Log) AppendCommit(xid uint32, ts int64) (LSN, error) { return 0, nil }

func (l *Log) AppendAbort(xid uint32) (LSN, error) { return 0, nil }

func (l *Log) AppendPageImage(image []byte, xid uint32) (LSN, error) { return 0, nil }

func (l *Log) Flush(lsn LSN) error { return nil }

func (l *Log) FlushLazy(lsn LSN) {}

type CheckpointMeta struct{}

func (l *Log) Checkpoint(redo LSN, meta CheckpointMeta) (LSN, error) { return 0, nil }
