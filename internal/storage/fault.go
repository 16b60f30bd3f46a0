package storage

import (
	"errors"
	"sync"
)

// ErrInjected is the failure produced by a FaultManager.
var ErrInjected = errors.New("storage: injected fault")

// faultOp classifies operations for selective failure injection.
type faultOp int

const (
	opRead faultOp = iota
	opWrite
	opSync
	opCreate
	opRemove
)

// FaultManager wraps another manager and fails operations on command. It
// exists for failure-injection tests: every layer above the storage switch
// must surface device errors rather than corrupt state, and must work again
// once the device recovers — which is exactly what a flaky SCSI chain or
// the paper's misbehaving jukebox driver (§9.3) looks like from above.
//
// It embeds the wrapped manager and overrides only the operations it can
// fail; the rest forward untouched.
type FaultManager struct {
	Manager

	mu          sync.Mutex
	failReads   bool // guarded by mu
	failWrites  bool // guarded by mu
	failSyncs   bool // guarded by mu
	failCreates bool // guarded by mu
	failRemoves bool // guarded by mu
	countdown   int  // guarded by mu; fail once it reaches zero; <0 disabled
}

var _ Manager = (*FaultManager)(nil)

// NewFaultManager wraps inner with injectable failures (initially healthy).
func NewFaultManager(inner Manager) *FaultManager {
	return &FaultManager{Manager: inner, countdown: -1}
}

// FailReads toggles failing all reads.
func (f *FaultManager) FailReads(on bool) {
	f.mu.Lock()
	f.failReads = on
	f.mu.Unlock()
}

// FailWrites toggles failing all writes. Device syncs are write-path
// operations and fail too (use FailSyncs to fail only the sync).
func (f *FaultManager) FailWrites(on bool) {
	f.mu.Lock()
	f.failWrites = on
	f.mu.Unlock()
}

// FailSyncs toggles failing Sync — a device that accepts writes into its
// cache but cannot force them to stable storage.
func (f *FaultManager) FailSyncs(on bool) {
	f.mu.Lock()
	f.failSyncs = on
	f.mu.Unlock()
}

// FailCreates toggles failing Create — a device out of directory space.
func (f *FaultManager) FailCreates(on bool) {
	f.mu.Lock()
	f.failCreates = on
	f.mu.Unlock()
}

// FailRemoves toggles failing Unlink.
func (f *FaultManager) FailRemoves(on bool) {
	f.mu.Lock()
	f.failRemoves = on
	f.mu.Unlock()
}

// FailAfter arms a one-shot failure after n successful operations of any
// kind (reads, writes, syncs, creates, unlinks).
func (f *FaultManager) FailAfter(n int) {
	f.mu.Lock()
	f.countdown = n
	f.mu.Unlock()
}

// Heal clears all injected failures.
func (f *FaultManager) Heal() {
	f.mu.Lock()
	f.failReads, f.failWrites, f.failSyncs = false, false, false
	f.failCreates, f.failRemoves = false, false
	f.countdown = -1
	f.mu.Unlock()
}

// shouldFail consumes the countdown and consults the toggles.
func (f *FaultManager) shouldFail(op faultOp) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.countdown == 0 {
		f.countdown = -1
		return true
	}
	if f.countdown > 0 {
		f.countdown--
	}
	switch op {
	case opRead:
		return f.failReads
	case opWrite:
		return f.failWrites
	case opSync:
		// Sync has always failed under FailWrites (it is the tail of the
		// write path); FailSyncs fails it alone.
		return f.failSyncs || f.failWrites
	case opCreate:
		return f.failCreates
	case opRemove:
		return f.failRemoves
	}
	return false
}

// Name implements Manager.
func (f *FaultManager) Name() string { return f.Manager.Name() + " (fault-injected)" }

// Create implements Manager.
func (f *FaultManager) Create(rel RelName) error {
	if f.shouldFail(opCreate) {
		return ErrInjected
	}
	return f.Manager.Create(rel)
}

// ReadBlock implements Manager.
func (f *FaultManager) ReadBlock(rel RelName, blk BlockNum, buf []byte) error {
	if f.shouldFail(opRead) {
		return ErrInjected
	}
	return f.Manager.ReadBlock(rel, blk, buf)
}

// ReadBlocks implements Manager as a per-block loop so the FailAfter
// countdown counts blocks, not batches, and an injected fault can land
// midway through a batch.
func (f *FaultManager) ReadBlocks(rel RelName, blk BlockNum, bufs [][]byte) error {
	return readBlocksSeq(f, rel, blk, bufs)
}

// WriteBlocks implements Manager as a per-block loop, for the same
// mid-batch injection reason as ReadBlocks.
func (f *FaultManager) WriteBlocks(rel RelName, blk BlockNum, bufs [][]byte) error {
	return writeBlocksSeq(f, rel, blk, bufs)
}

// WriteBlock implements Manager.
func (f *FaultManager) WriteBlock(rel RelName, blk BlockNum, buf []byte) error {
	if f.shouldFail(opWrite) {
		return ErrInjected
	}
	return f.Manager.WriteBlock(rel, blk, buf)
}

// Sync implements Manager.
func (f *FaultManager) Sync(rel RelName) error {
	if f.shouldFail(opSync) {
		return ErrInjected
	}
	return f.Manager.Sync(rel)
}

// Unlink implements Manager.
func (f *FaultManager) Unlink(rel RelName) error {
	if f.shouldFail(opRemove) {
		return ErrInjected
	}
	return f.Manager.Unlink(rel)
}
