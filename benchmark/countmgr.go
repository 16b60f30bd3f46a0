package main

import (
	"runtime"
	"strings"
	"sync/atomic"

	"postlob/internal/page"
	"postlob/internal/storage"
)

// relClass groups relations the way the per-layer metrics report them.
type relClass int

const (
	classData relClass = iota
	classIndex
	classWAL
	numClasses
)

// classOf sorts a relation by name: the write-ahead log's segments and
// control relation, B-tree relations, and everything else (heap data).
func classOf(rel storage.RelName) relClass {
	s := string(rel)
	switch {
	case strings.HasPrefix(s, "pg_wal"):
		return classWAL
	case strings.HasSuffix(s, "idx"):
		return classIndex
	default:
		return classData
	}
}

// ioCounters is what the counting decorator has seen, per relation class.
// One instance is shared by every manager of a database, so the totals are
// the device traffic of the whole stack.
type ioCounters struct {
	readCalls, readBlocks   [numClasses]atomic.Int64
	writeCalls, writeBlocks [numClasses]atomic.Int64
	syncs                   [numClasses]atomic.Int64

	// tr is the tracer of the window in progress, nil outside a traced
	// window; the decorator records a span per call while it is set.
	// inflight counts decorator calls between enter and leave, so that
	// stopTracing can wait out the background goroutines still inside one.
	tr       atomic.Pointer[tracer]
	inflight atomic.Int64
}

// enter returns the tracer a decorator call should record into; the call
// must end with leave.
func (c *ioCounters) enter() *tracer {
	c.inflight.Add(1)
	return c.tr.Load()
}

func (c *ioCounters) leave() { c.inflight.Add(-1) }

// stopTracing detaches the tracer and returns once no decorator call that
// saw it is still running, after which its spans may be read.
func (c *ioCounters) stopTracing() {
	c.tr.Store(nil)
	for c.inflight.Load() != 0 {
		runtime.Gosched()
	}
}

// ioSnap is a point-in-time copy of ioCounters, summed over the classes
// where the metrics do not separate them.
type ioSnap struct {
	readCalls, readBlocks   int64
	writeCalls, writeBlocks int64
	syncs                   int64
	walWriteBlocks          int64
}

func (c *ioCounters) snap() ioSnap {
	var s ioSnap
	for k := relClass(0); k < numClasses; k++ {
		s.readCalls += c.readCalls[k].Load()
		s.readBlocks += c.readBlocks[k].Load()
		s.writeCalls += c.writeCalls[k].Load()
		s.writeBlocks += c.writeBlocks[k].Load()
		s.syncs += c.syncs[k].Load()
	}
	s.walWriteBlocks = c.writeBlocks[classWAL].Load()
	return s
}

func (s ioSnap) sub(o ioSnap) ioSnap {
	return ioSnap{
		readCalls: s.readCalls - o.readCalls, readBlocks: s.readBlocks - o.readBlocks,
		writeCalls: s.writeCalls - o.writeCalls, writeBlocks: s.writeBlocks - o.writeBlocks,
		syncs: s.syncs - o.syncs, walWriteBlocks: s.walWriteBlocks - o.walWriteBlocks,
	}
}

func (s ioSnap) writeBytes() int64 { return s.writeBlocks * page.Size }

// countingManager decorates a storage manager from outside the program: it
// counts every block transfer and flush by relation class, and under a
// tracer it also records one span per call. Every other method is the inner
// manager's own.
type countingManager struct {
	storage.Manager
	c *ioCounters
}

func (m *countingManager) ReadBlock(rel storage.RelName, blk storage.BlockNum, buf []byte) error {
	k := classOf(rel)
	m.c.readCalls[k].Add(1)
	m.c.readBlocks[k].Add(1)
	tr := m.c.enter()
	sp := tr.beginStorage(spStorageRead)
	err := m.Manager.ReadBlock(rel, blk, buf)
	tr.end(sp)
	m.c.leave()
	return err
}

func (m *countingManager) ReadBlocks(rel storage.RelName, blk storage.BlockNum, bufs [][]byte) error {
	k := classOf(rel)
	m.c.readCalls[k].Add(1)
	m.c.readBlocks[k].Add(int64(len(bufs)))
	tr := m.c.enter()
	sp := tr.beginStorage(spStorageRead)
	err := m.Manager.ReadBlocks(rel, blk, bufs)
	tr.end(sp)
	m.c.leave()
	return err
}

func (m *countingManager) WriteBlock(rel storage.RelName, blk storage.BlockNum, buf []byte) error {
	k := classOf(rel)
	m.c.writeCalls[k].Add(1)
	m.c.writeBlocks[k].Add(1)
	tr := m.c.enter()
	sp := tr.beginStorage(spStorageWrite)
	err := m.Manager.WriteBlock(rel, blk, buf)
	tr.end(sp)
	m.c.leave()
	return err
}

func (m *countingManager) WriteBlocks(rel storage.RelName, blk storage.BlockNum, bufs [][]byte) error {
	k := classOf(rel)
	m.c.writeCalls[k].Add(1)
	m.c.writeBlocks[k].Add(int64(len(bufs)))
	tr := m.c.enter()
	sp := tr.beginStorage(spStorageWrite)
	err := m.Manager.WriteBlocks(rel, blk, bufs)
	tr.end(sp)
	m.c.leave()
	return err
}

// Sync counts the flush and does not forward it. The data directory is on
// whatever disk the checkout is on, and a sandbox's shared disk makes fsync
// the noisiest call in the stack; with the flush a no-op (what a tmpfs data
// directory would make it) device cost is reported as exact flush and byte
// counts, and the timings are the program's own. Nothing the benchmark checks
// needs the flush: it restarts the database, it does not cut the power.
func (m *countingManager) Sync(rel storage.RelName) error {
	m.c.syncs[classOf(rel)].Add(1)
	tr := m.c.enter()
	tr.end(tr.beginStorage(spStorageSync))
	m.c.leave()
	return nil
}
