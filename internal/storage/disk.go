package storage

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"postlob/internal/page"
	"postlob/internal/vclock"
)

// DiskManager stores each relation as one file under a base directory — the
// "thin veneer on top of the UNIX file system" of §7. An optional DeviceModel
// charges magnetic-disk costs to a virtual clock so the benchmark harness can
// report era-appropriate elapsed times.
type DiskManager struct {
	dir   string
	model DeviceModel
	clock *vclock.Clock
	track *tracker

	// mu guards only the handle cache. Block reads and writes go through
	// positional ReadAt/WriteAt on the cached *os.File, which is safe for
	// any number of concurrent callers, so the data path takes mu only
	// briefly (shared) to look the handle up.
	mu    sync.RWMutex
	files map[RelName]*diskFile // guarded by mu

	// stages is a bounded free list of the staging buffers ReadBlocks and
	// WriteBlocks gather through. Unlike a sync.Pool, a collection does not
	// empty it, so a warm manager stages every batch without allocating.
	stages chan []byte
}

// maxStages bounds the staging buffers a DiskManager keeps: one for each
// batch that can stage at once. The buffer pool's write-back keeps up to 16
// gather writes in flight (bgWriteConcurrency in internal/buffer), the
// prefetcher reads one run at a time, and one more covers a checkpoint's
// write-back overlapping a writer round. The WAL's writes are contiguous and
// never stage. The list only ever holds buffers that were once in flight
// together, so the bound costs memory (maxStagePages each) only when that
// much concurrency happens: instrumented runs saw at most 2 stages in
// flight on replace_wal and 1 on frame_cold (2-core VM). A batch beyond
// the bound allocates its own stage and drops it afterwards.
const maxStages = 18

// maxStagePages is the length of every stage the free list keeps: the
// largest batch a writer round, a checkpoint slice (both 64 pages) or a
// prefetch window (16) stages. A longer batch, a write-back that also fills
// the gap past a relation's end, stages through a buffer of its own that is
// dropped afterwards, so the list never pins a gap-sized buffer.
const maxStagePages = 64

// diskFile is one open relation file and its length in blocks. The manager
// is the file's only writer, so it tracks the length as its writes extend the
// file instead of asking the file system on every write.
type diskFile struct {
	*os.File
	nblocks atomic.Uint32
}

// stat sets the tracked length from the file system: at open, and after a
// failed write, which may have extended the file part-way.
func (f *diskFile) stat() error {
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("disk: %w", err)
	}
	f.nblocks.Store(BlockNum(fi.Size() / page.Size))
	return nil
}

// wrote records a successful write of blocks [blk, end): the tracked length
// grows to end if it was shorter.
func (f *diskFile) wrote(end BlockNum) {
	for {
		n := f.nblocks.Load()
		if n >= end || f.nblocks.CompareAndSwap(n, end) {
			return
		}
	}
}

var _ Manager = (*DiskManager)(nil)

// NewDiskManager creates a disk manager rooted at dir, creating dir if
// needed. clock may be nil to disable cost accounting.
func NewDiskManager(dir string, model DeviceModel, clock *vclock.Clock) (*DiskManager, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("disk: %w", err)
	}
	return &DiskManager{
		dir:    dir,
		model:  model,
		clock:  clock,
		track:  newTracker(),
		files:  make(map[RelName]*diskFile),
		stages: make(chan []byte, maxStages),
	}, nil
}

// Name implements Manager.
func (d *DiskManager) Name() string { return "magnetic disk" }

// Dir returns the manager's base directory.
func (d *DiskManager) Dir() string { return d.dir }

func (d *DiskManager) path(rel RelName) string {
	return filepath.Join(d.dir, string(rel))
}

// open returns the cached file handle for rel, opening it if necessary.
// The fast path is a shared lookup so concurrent block reads never contend.
func (d *DiskManager) open(rel RelName) (*diskFile, error) {
	d.mu.RLock()
	f, ok := d.files[rel]
	d.mu.RUnlock()
	if ok {
		return f, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if f, ok := d.files[rel]; ok {
		return f, nil
	}
	osf, err := os.OpenFile(d.path(rel), os.O_RDWR, 0)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrNoRelation, rel)
		}
		return nil, fmt.Errorf("disk: %w", err)
	}
	f = &diskFile{File: osf}
	if err := f.stat(); err != nil {
		osf.Close()
		return nil, err
	}
	d.files[rel] = f
	return f, nil
}

// Create implements Manager.
func (d *DiskManager) Create(rel RelName) error {
	f, err := os.OpenFile(d.path(rel), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		if errors.Is(err, fs.ErrExist) {
			return fmt.Errorf("%w: %s", ErrRelExists, rel)
		}
		return fmt.Errorf("disk: %w", err)
	}
	d.mu.Lock()
	d.files[rel] = &diskFile{File: f}
	d.mu.Unlock()
	return nil
}

// Exists implements Manager.
func (d *DiskManager) Exists(rel RelName) bool {
	d.mu.RLock()
	_, ok := d.files[rel]
	d.mu.RUnlock()
	if ok {
		return true
	}
	_, err := os.Stat(d.path(rel))
	return err == nil
}

// NBlocks implements Manager.
func (d *DiskManager) NBlocks(rel RelName) (BlockNum, error) {
	f, err := d.open(rel)
	if err != nil {
		return 0, err
	}
	return f.nblocks.Load(), nil
}

// ReadBlock implements Manager.
func (d *DiskManager) ReadBlock(rel RelName, blk BlockNum, buf []byte) error {
	diskMetrics.reads.Inc()
	sw := diskMetrics.readLat.Start()
	defer sw.Stop()
	if err := checkBuf(buf); err != nil {
		return err
	}
	f, err := d.open(rel)
	if err != nil {
		return err
	}
	n, err := f.ReadAt(buf, int64(blk)*page.Size)
	if err != nil {
		if err == io.EOF && n == 0 {
			return fmt.Errorf("%w: %s block %d", ErrBadBlock, rel, blk)
		}
		if err != io.EOF {
			return fmt.Errorf("disk: read %s block %d: %w", rel, blk, err)
		}
	}
	if n != page.Size {
		return fmt.Errorf("%w: %s block %d (short read %d)", ErrBadBlock, rel, blk, n)
	}
	// The tracker is a serialisation point (it orders accesses to decide
	// seek vs transfer cost), so skip it entirely when nothing is charged.
	if !d.model.IsZero() {
		charge(d.clock, d.model, d.track.sequential(rel, blk))
	}
	return nil
}

// ReadBlocks implements Manager with one coalesced positional read: the
// blocks are adjacent in the relation file, so a single ReadAt over a
// staging buffer replaces len(bufs) system calls, then the pages scatter
// out to the callers' buffers.
func (d *DiskManager) ReadBlocks(rel RelName, blk BlockNum, bufs [][]byte) error {
	if len(bufs) == 0 {
		return nil
	}
	if len(bufs) == 1 {
		return d.ReadBlock(rel, blk, bufs[0])
	}
	diskMetrics.reads.Add(int64(len(bufs)))
	diskMetrics.batchReads.Inc()
	sw := diskMetrics.readLat.Start()
	defer sw.Stop()
	if err := checkBufs(bufs); err != nil {
		return err
	}
	f, err := d.open(rel)
	if err != nil {
		return err
	}
	stage := d.getStage(len(bufs))
	defer d.putStage(stage)
	n, err := f.ReadAt(stage, int64(blk)*page.Size)
	if err != nil && err != io.EOF {
		return fmt.Errorf("disk: read %s blocks %d..%d: %w", rel, blk, int(blk)+len(bufs)-1, err)
	}
	if n != len(stage) {
		return fmt.Errorf("%w: %s block %d (short batch read %d of %d bytes)",
			ErrBadBlock, rel, blk+BlockNum(n/page.Size), n, len(stage))
	}
	for i, buf := range bufs {
		copy(buf, stage[i*page.Size:(i+1)*page.Size])
	}
	if !d.model.IsZero() {
		for i := range bufs {
			b := blk + BlockNum(i)
			charge(d.clock, d.model, d.track.sequential(rel, b))
		}
	}
	return nil
}

// WriteBlock implements Manager.
func (d *DiskManager) WriteBlock(rel RelName, blk BlockNum, buf []byte) error {
	diskMetrics.writes.Inc()
	sw := diskMetrics.writeLat.Start()
	defer sw.Stop()
	if err := checkBuf(buf); err != nil {
		return err
	}
	f, err := d.open(rel)
	if err != nil {
		return err
	}
	if n := f.nblocks.Load(); blk > n {
		return fmt.Errorf("%w: write %s block %d beyond end %d", ErrBadBlock, rel, blk, n)
	}
	if _, err := f.WriteAt(buf, int64(blk)*page.Size); err != nil {
		f.stat()
		return fmt.Errorf("disk: write %s block %d: %w", rel, blk, err)
	}
	f.wrote(blk + 1)
	if !d.model.IsZero() {
		charge(d.clock, d.model, d.track.sequential(rel, blk))
	}
	return nil
}

// getStage returns a staging buffer of n blocks. Every stage the free list
// keeps is maxStagePages long, so a batch that fits takes one from the list,
// or allocates one at that length when the list is empty, and a stage never
// grows step by step. A busy workload issues thousands of small batches a
// second, and a fresh staging copy per write batch was a fifth of everything
// it allocated.
func (d *DiskManager) getStage(n int) []byte {
	if n > maxStagePages {
		return make([]byte, n*page.Size)
	}
	select {
	case stage := <-d.stages:
		return stage[:n*page.Size]
	default:
		return make([]byte, n*page.Size, maxStagePages*page.Size)
	}
}

// putStage returns a staging buffer to the free list, or drops it when it
// is longer than maxStagePages or the list is full.
func (d *DiskManager) putStage(stage []byte) {
	if cap(stage) != maxStagePages*page.Size {
		return
	}
	select {
	case d.stages <- stage:
	default:
	}
}

// contiguous returns bufs as one slice when they already sit back to back in
// memory — the write-ahead log hands over consecutive blocks of its flush
// buffer — so the batch can go to the device with no staging copy. The test
// needs no unsafe: reslicing the first buffer over the batch's length and
// comparing element addresses proves the layout.
func contiguous(bufs [][]byte) ([]byte, bool) {
	total := len(bufs) * page.Size
	if cap(bufs[0]) < total {
		return nil, false
	}
	whole := bufs[0][:total]
	for i := 1; i < len(bufs); i++ {
		if &whole[i*page.Size] != &bufs[i][0] {
			return nil, false
		}
	}
	return whole, true
}

// WriteBlocks implements Manager with one coalesced positional write: a
// single WriteAt lands every page, straight from the caller's memory when
// the buffers are contiguous and through a staging buffer otherwise.
// Appending batches are allowed under the same contract as WriteBlock —
// the batch may start at the append position and extends contiguously.
func (d *DiskManager) WriteBlocks(rel RelName, blk BlockNum, bufs [][]byte) error {
	if len(bufs) == 0 {
		return nil
	}
	if len(bufs) == 1 {
		return d.WriteBlock(rel, blk, bufs[0])
	}
	diskMetrics.writes.Add(int64(len(bufs)))
	diskMetrics.batchWrites.Inc()
	sw := diskMetrics.writeLat.Start()
	defer sw.Stop()
	if err := checkBufs(bufs); err != nil {
		return err
	}
	f, err := d.open(rel)
	if err != nil {
		return err
	}
	if n := f.nblocks.Load(); blk > n {
		return fmt.Errorf("%w: write %s block %d beyond end %d", ErrBadBlock, rel, blk, n)
	}
	stage, ok := contiguous(bufs)
	if !ok {
		stage = d.getStage(len(bufs))
		defer d.putStage(stage)
		for i, buf := range bufs {
			copy(stage[i*page.Size:], buf)
		}
	}
	if _, err := f.WriteAt(stage, int64(blk)*page.Size); err != nil {
		f.stat()
		return fmt.Errorf("disk: write %s blocks %d..%d: %w", rel, blk, int(blk)+len(bufs)-1, err)
	}
	f.wrote(blk + BlockNum(len(bufs)))
	if !d.model.IsZero() {
		for i := range bufs {
			b := blk + BlockNum(i)
			charge(d.clock, d.model, d.track.sequential(rel, b))
		}
	}
	return nil
}

// Sync implements Manager.
func (d *DiskManager) Sync(rel RelName) error {
	diskMetrics.syncs.Inc()
	sw := diskMetrics.syncLat.Start()
	defer sw.Stop()
	f, err := d.open(rel)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("disk: sync %s: %w", rel, err)
	}
	return nil
}

// Unlink implements Manager.
func (d *DiskManager) Unlink(rel RelName) error {
	d.mu.Lock()
	if f, ok := d.files[rel]; ok {
		f.Close()
		delete(d.files, rel)
	}
	d.mu.Unlock()
	d.track.forget(rel)
	if err := os.Remove(d.path(rel)); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("%w: %s", ErrNoRelation, rel)
		}
		return fmt.Errorf("disk: %w", err)
	}
	return nil
}

// Size implements Manager.
func (d *DiskManager) Size(rel RelName) (int64, error) {
	n, err := d.NBlocks(rel)
	if err != nil {
		return 0, err
	}
	return int64(n) * page.Size, nil
}

// Close implements Manager.
func (d *DiskManager) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var first error
	for rel, f := range d.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
		delete(d.files, rel)
	}
	return first
}

// ReplaceFile replaces the file at path with data atomically (a temporary
// file renamed over it), so a crash leaves the old file or the new. With
// sync the temporary file is fsynced before the rename and the directory
// after it, so the new file also survives a power loss.
func ReplaceFile(path string, data []byte, sync bool) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil && sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil || !sync {
		return err
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
