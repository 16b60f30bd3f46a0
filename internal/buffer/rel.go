package buffer

import (
	"cmp"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"postlob/internal/page"
	"postlob/internal/storage"
)

type relKey struct {
	sm  storage.ID
	rel storage.RelName
}

// Rel is the pool's descriptor of one relation: its identity, length,
// extension lock, checksummer, and write-back and dirty counts. Pool.Rel
// creates it once per (storage manager, name); access methods hold it for
// the life of their handle, prefetch requests carry it, and every frame
// holding one of its pages points at it. The id lives only in this process:
// the log, base backups and every sort order name a relation by storage
// manager and name.
type Rel struct {
	pool *Pool
	id   uint32
	sm   storage.ID
	name storage.RelName
	hash uint64 // FNV-1a of name and sm, the partition hash's prefix (Pool.part)

	// nblocks is the relation's length including blocks that exist only as
	// dirty frames not yet written out; it is read from the device on first
	// use (nbKnown).
	nblocks storage.BlockNum // guarded by pool.nbMu
	nbKnown bool             // guarded by pool.nbMu
	// dropped is set, under pool.nbMu, once DropRel has discarded the
	// relation. The descriptor then refuses reads and extension: a handle
	// that outlived its relation gets ErrDropped, never a page of a relation
	// created later under the same name (which gets a descriptor of its own).
	dropped atomic.Bool

	// ext is the extension lock, which serialises device growth (the
	// no-holes invariant needs a stable view of the physical length).
	ext sync.Mutex

	cs atomic.Pointer[csBox] // the page checksummer; nil for none

	wbInFlight int // guarded by pool.wbMu; write-backs signed into the drain gate

	// ndirty counts the relation's resident frames with dirty set, kept by
	// Frame.setDirty beside the partitions' counts: a flush of a relation
	// with nothing dirty visits no frames.
	ndirty atomic.Int64
	// unsynced records that a device write of the relation may have
	// completed since its last sync. writeRun sets it once its write has
	// returned; FlushRel clears it after the drain gate and syncs only if it
	// was set. A fresh descriptor starts with it set: the pool cannot vouch
	// for the relation's creation or for writes made before it knew the
	// relation.
	unsynced atomic.Bool
}

type csBox struct{ cs Checksummer }

// FNV-1a, 64-bit.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Rel returns the descriptor of (sm, name), creating it on first use. After
// DropRel has discarded a relation, the name resolves to a fresh descriptor
// with a new id.
func (p *Pool) Rel(sm storage.ID, name storage.RelName) *Rel {
	p.nbMu.Lock()
	defer p.nbMu.Unlock()
	key := relKey{sm, name}
	if r := p.rels[key]; r != nil {
		return r
	}
	h := uint64(fnvOffset)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * fnvPrime
	}
	h = (h ^ uint64(sm)) * fnvPrime
	p.lastID++
	r := &Rel{pool: p, id: p.lastID, sm: sm, name: name, hash: h}
	r.unsynced.Store(true)
	p.rels[key] = r
	return r
}

// lookupRel returns the registered descriptor of (sm, name), or nil.
func (p *Pool) lookupRel(sm storage.ID, name storage.RelName) *Rel {
	p.nbMu.Lock()
	defer p.nbMu.Unlock()
	return p.rels[relKey{sm, name}]
}

// Name returns the relation's storage name.
func (r *Rel) Name() storage.RelName { return r.name }

// SM returns the storage manager holding the relation.
func (r *Rel) SM() storage.ID { return r.sm }

// Dropped reports whether DropRel has discarded the relation.
func (r *Rel) Dropped() bool { return r.dropped.Load() }

// key is the page-table key of block blk: one word, so a lookup hashes and
// compares no string.
func (r *Rel) key(blk storage.BlockNum) uint64 { return uint64(r.id)<<32 | uint64(blk) }

func (r *Rel) tag(blk storage.BlockNum) Tag { return Tag{SM: r.sm, Rel: r.name, Blk: blk} }

// cmpRel orders descriptors by storage manager and name, the order every
// flush follows so a seeded workload issues the same device operations each
// run; the id only separates a dropped descriptor from its successor.
func cmpRel(a, b *Rel) int {
	if a == b {
		return 0
	}
	if a.sm != b.sm {
		return cmp.Compare(a.sm, b.sm)
	}
	if c := strings.Compare(string(a.name), string(b.name)); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// SetChecksummer registers the relation's page checksummer; nil disables
// checksumming. Registration must precede reads for verification to happen,
// so access methods call this when a relation is created or opened.
func (r *Rel) SetChecksummer(cs Checksummer) {
	if cs == nil {
		r.cs.Store(nil)
		return
	}
	r.cs.Store(&csBox{cs})
}

func (r *Rel) checksummer() Checksummer {
	if b := r.cs.Load(); b != nil {
		return b.cs
	}
	return nil
}

// NBlocks returns the relation's length including blocks that exist only as
// dirty frames not yet written out.
func (r *Rel) NBlocks() (storage.BlockNum, error) {
	r.pool.nbMu.Lock()
	defer r.pool.nbMu.Unlock()
	return r.nblocksLocked()
}

func (r *Rel) nblocksLocked() (storage.BlockNum, error) {
	if r.dropped.Load() {
		return 0, fmt.Errorf("%w: %s", ErrDropped, r.name)
	}
	if r.nbKnown {
		return r.nblocks, nil
	}
	mgr, err := r.pool.sw.Get(r.sm)
	if err != nil {
		return 0, err
	}
	n, err := mgr.NBlocks(r.name)
	if err != nil {
		return 0, err
	}
	r.nblocks, r.nbKnown = n, true
	return n, nil
}

// Get pins the frame holding block blk, reading it from the storage manager
// on a miss. The device read happens with no pool lock held, so concurrent
// misses overlap their I/O; when two goroutines race to load the same page,
// one install wins and the other read is discarded. A dropped relation's
// descriptor fails with ErrDropped.
func (r *Rel) Get(blk storage.BlockNum) (*Frame, error) {
	p := r.pool
	obsLookups.Inc()
	key := r.key(blk)
	part := p.part(r, blk)
	if f := part.tryPin(key); f != nil {
		obsHits.Inc()
		return f, nil
	}
	// Count the miss up front (whatever the outcome of the device read) so
	// hits + misses == lookups holds even on error paths. The lost-install
	// race below is still this one miss, not an extra hit.
	part.mu.Lock()
	part.misses++
	part.mu.Unlock()
	obsMisses.Inc()
	for attempt := 0; ; attempt++ {
		n, err := r.NBlocks()
		if err != nil {
			return nil, err
		}
		if blk >= n {
			return nil, fmt.Errorf("%w: %s (nblocks %d)", storage.ErrBadBlock, r.tag(blk), n)
		}
		f, err := p.allocFrame()
		if err != nil {
			return nil, err
		}
		mgr, err := p.sw.Get(r.sm)
		if err != nil {
			p.putFree(f)
			return nil, err
		}
		sw := obsReadLat.Start()
		readErr := mgr.ReadBlock(r.name, blk, f.data)
		sw.Stop()
		if readErr == nil {
			if cs := r.checksummer(); cs != nil {
				if err := cs.Verify(f.data); err != nil {
					readErr = fmt.Errorf("buffer: %s: %w", r.tag(blk), err)
				}
			}
		}

		part.mu.Lock()
		if g, ok := part.lookup[key]; ok {
			// Lost the install race (or the page was born in the pool while
			// we were at the device): use the resident frame.
			part.pinLocked(g)
			part.mu.Unlock()
			p.putFree(f)
			return g, nil
		}
		if readErr != nil {
			part.mu.Unlock()
			p.putFree(f)
			// A checksum mismatch can be a transient torn read racing an
			// eviction's in-flight device write; once that write completes
			// a re-read sees the full image. Only a mismatch that persists
			// is real on-device corruption.
			if errors.Is(readErr, page.ErrChecksum) && attempt < 4 {
				time.Sleep(20 * time.Microsecond)
				continue
			}
			// A block inside the relation's virtual length lives either in
			// the pool or on the device; a failed device read can race an
			// eviction that was still materialising the block. Retry only
			// when the device genuinely lacks the block — if the device
			// claims it exists, the failure is a real I/O error and must
			// surface to the caller.
			if devN, nErr := mgr.NBlocks(r.name); attempt == 0 && nErr == nil && blk >= devN {
				continue
			}
			return nil, readErr
		}
		f.installLocked(r, blk, part)
		f.pins = 1
		part.lookup[key] = f
		part.mu.Unlock()
		return f, nil
	}
}

// NewBlock extends the relation by one page and returns the new block's
// pinned, dirty, zeroed frame. The block reaches the device lazily. The
// frame is installed in its partition before the new length is published,
// so a concurrent Get that sees the length always finds the page.
func (r *Rel) NewBlock() (*Frame, storage.BlockNum, error) {
	p := r.pool
	f, err := p.allocFrame()
	if err != nil {
		return nil, 0, err
	}
	clear(f.data)
	p.nbMu.Lock()
	n, err := r.nblocksLocked()
	if err != nil {
		p.nbMu.Unlock()
		p.putFree(f)
		return nil, 0, err
	}
	key := r.key(n)
	part := p.part(r, n)
	part.mu.Lock()
	f.installLocked(r, n, part)
	f.pins = 1
	f.setDirty(true)
	f.noteWALDirty()
	part.lookup[key] = f
	r.nblocks = n + 1
	part.mu.Unlock()
	p.nbMu.Unlock()
	return f, n, nil
}
