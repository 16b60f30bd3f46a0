package storage

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

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
	files map[RelName]*os.File // guarded by mu
}

var _ Manager = (*DiskManager)(nil)

// NewDiskManager creates a disk manager rooted at dir, creating dir if
// needed. clock may be nil to disable cost accounting.
func NewDiskManager(dir string, model DeviceModel, clock *vclock.Clock) (*DiskManager, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("disk: %w", err)
	}
	return &DiskManager{
		dir:   dir,
		model: model,
		clock: clock,
		track: newTracker(),
		files: make(map[RelName]*os.File),
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
func (d *DiskManager) open(rel RelName) (*os.File, error) {
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
	f, err := os.OpenFile(d.path(rel), os.O_RDWR, 0)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrNoRelation, rel)
		}
		return nil, fmt.Errorf("disk: %w", err)
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
	d.files[rel] = f
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
	fi, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("disk: %w", err)
	}
	return BlockNum(fi.Size() / page.Size), nil
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
	stage := make([]byte, len(bufs)*page.Size)
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
	n, err := d.NBlocks(rel)
	if err != nil {
		return err
	}
	if blk > n {
		return fmt.Errorf("%w: write %s block %d beyond end %d", ErrBadBlock, rel, blk, n)
	}
	if _, err := f.WriteAt(buf, int64(blk)*page.Size); err != nil {
		return fmt.Errorf("disk: write %s block %d: %w", rel, blk, err)
	}
	if !d.model.IsZero() {
		charge(d.clock, d.model, d.track.sequential(rel, blk))
	}
	return nil
}

// stagePool recycles WriteBlocks' gather buffers: a write-heavy workload
// issues thousands of small batches a second, and a fresh staging copy per
// batch was a fifth of everything it allocated.
var stagePool = sync.Pool{New: func() any { return new([]byte) }}

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
// the buffers are contiguous and through a pooled staging buffer otherwise.
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
	n, err := d.NBlocks(rel)
	if err != nil {
		return err
	}
	if blk > n {
		return fmt.Errorf("%w: write %s block %d beyond end %d", ErrBadBlock, rel, blk, n)
	}
	stage, ok := contiguous(bufs)
	if !ok {
		sp := stagePool.Get().(*[]byte)
		defer stagePool.Put(sp)
		if cap(*sp) < len(bufs)*page.Size {
			*sp = make([]byte, len(bufs)*page.Size)
		}
		stage = (*sp)[:len(bufs)*page.Size]
		for i, buf := range bufs {
			copy(stage[i*page.Size:], buf)
		}
	}
	if _, err := f.WriteAt(stage, int64(blk)*page.Size); err != nil {
		return fmt.Errorf("disk: write %s blocks %d..%d: %w", rel, blk, int(blk)+len(bufs)-1, err)
	}
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
