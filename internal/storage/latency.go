package storage

import "time"

// LatencyManager wraps another manager and spends a fixed wall-clock
// latency on every block read and write, making the wrapped device behave
// like a real I/O-bound one. It complements DeviceModel: model costs are
// charged to a *virtual* clock so the paper's figures stay deterministic,
// while LatencyManager burns *real* time, which is what concurrency
// benchmarks need — overlapping device waits is exactly the capability a
// scalable read path provides, and on a small host it is the only honest
// source of read-throughput scaling. The sleep happens in the calling
// goroutine with no LatencyManager state shared between calls, so wrapped
// operations are exactly as concurrent as the inner manager allows. It
// embeds the wrapped manager and overrides only the operations it delays.
type LatencyManager struct {
	Manager
	readLat  time.Duration
	writeLat time.Duration
	syncLat  time.Duration
}

var _ Manager = (*LatencyManager)(nil)

// NewLatencyManager wraps inner, charging readLat per ReadBlock and
// writeLat per WriteBlock. Zero durations disable the respective sleep.
func NewLatencyManager(inner Manager, readLat, writeLat time.Duration) *LatencyManager {
	return &LatencyManager{Manager: inner, readLat: readLat, writeLat: writeLat}
}

// NewLatencyManagerWithSync additionally charges syncLat per Sync — the
// device round trip a durable flush costs regardless of how many buffered
// writes it retires. Commit-latency benchmarks use this shape (cheap
// buffered writes, expensive settles): it is the cost profile group commit
// exists to amortise.
func NewLatencyManagerWithSync(inner Manager, readLat, writeLat, syncLat time.Duration) *LatencyManager {
	return &LatencyManager{Manager: inner, readLat: readLat, writeLat: writeLat, syncLat: syncLat}
}

// Name implements Manager.
func (l *LatencyManager) Name() string { return l.Manager.Name() + " (simulated latency)" }

// ReadBlock implements Manager.
func (l *LatencyManager) ReadBlock(rel RelName, blk BlockNum, buf []byte) error {
	if l.readLat > 0 {
		time.Sleep(l.readLat)
	}
	return l.Manager.ReadBlock(rel, blk, buf)
}

// WriteBlock implements Manager.
func (l *LatencyManager) WriteBlock(rel RelName, blk BlockNum, buf []byte) error {
	if l.writeLat > 0 {
		time.Sleep(l.writeLat)
	}
	return l.Manager.WriteBlock(rel, blk, buf)
}

// ReadBlocks implements Manager: one positioning latency covers the whole
// batch — the device pays a single seek-plus-transfer for adjacent blocks,
// which is exactly the win vectored I/O exists to expose — and the inner
// manager performs the actual scatter read.
func (l *LatencyManager) ReadBlocks(rel RelName, blk BlockNum, bufs [][]byte) error {
	if l.readLat > 0 && len(bufs) > 0 {
		time.Sleep(l.readLat)
	}
	return l.Manager.ReadBlocks(rel, blk, bufs)
}

// WriteBlocks implements Manager: one positioning latency per batch, like
// ReadBlocks.
func (l *LatencyManager) WriteBlocks(rel RelName, blk BlockNum, bufs [][]byte) error {
	if l.writeLat > 0 && len(bufs) > 0 {
		time.Sleep(l.writeLat)
	}
	return l.Manager.WriteBlocks(rel, blk, bufs)
}

// Sync implements Manager.
func (l *LatencyManager) Sync(rel RelName) error {
	if l.syncLat > 0 {
		time.Sleep(l.syncLat)
	}
	return l.Manager.Sync(rel)
}
