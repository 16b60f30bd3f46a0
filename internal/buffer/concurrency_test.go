package buffer

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"postlob/internal/storage"
)

// TestConcurrentGetRelease hammers the pool with concurrent pin/unpin
// traffic over a working set larger than the pool, so eviction, write-back,
// and reload all race against each other.
func TestConcurrentGetRelease(t *testing.T) {
	p, mem := newTestPool(t, 16)
	if err := mem.Create(rel); err != nil {
		t.Fatal(err)
	}
	const blocks = 64
	for i := 0; i < blocks; i++ {
		f, blk, err := p.Rel(storage.Mem, rel).NewBlock()
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(f.Page()[100:], uint32(blk))
		f.MarkDirty()
		f.Release()
	}
	if err := p.FlushRel(storage.Mem, rel); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				blk := storage.BlockNum((g*31 + i*7) % blocks)
				f, err := p.Get(Tag{SM: storage.Mem, Rel: rel, Blk: blk})
				if err != nil {
					errs <- fmt.Errorf("g%d get %d: %w", g, blk, err)
					return
				}
				if got := binary.LittleEndian.Uint32(f.Page()[100:]); got != uint32(blk) {
					errs <- fmt.Errorf("g%d: block %d contains %d", g, blk, got)
					f.Release()
					return
				}
				f.Release()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentWritersDistinctBlocks has goroutines each mutating their
// own block through the shared pool; all updates must survive eviction
// churn.
func TestConcurrentWritersDistinctBlocks(t *testing.T) {
	p, mem := newTestPool(t, 4) // tiny pool: constant eviction
	if err := mem.Create(rel); err != nil {
		t.Fatal(err)
	}
	const writers = 8
	for i := 0; i < writers; i++ {
		f, _, err := p.Rel(storage.Mem, rel).NewBlock()
		if err != nil {
			t.Fatal(err)
		}
		f.MarkDirty()
		f.Release()
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f, err := p.Get(Tag{SM: storage.Mem, Rel: rel, Blk: storage.BlockNum(w)})
				if err != nil {
					errs <- err
					return
				}
				f.LockContent()
				binary.LittleEndian.PutUint64(f.Page()[200:], uint64(i))
				f.MarkDirty()
				f.UnlockContent()
				f.Release()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		f, err := p.Get(Tag{SM: storage.Mem, Rel: rel, Blk: storage.BlockNum(w)})
		if err != nil {
			t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint64(f.Page()[200:]); got != 199 {
			t.Fatalf("writer %d final value = %d", w, got)
		}
		f.Release()
	}
}
