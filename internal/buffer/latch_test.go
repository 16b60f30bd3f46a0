package buffer

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"postlob/internal/storage"
)

// TestContentLatchExcludesFlushDuringMutation: a flush must not observe a
// page mid-mutation. A mutator holds the frame's exclusive content latch
// while writing a counter twice (torn state between the writes); concurrent
// FlushRel calls must never copy the torn state to the device.
func TestContentLatchExcludesFlushDuringMutation(t *testing.T) {
	p, mem := newTestPool(t, 4)
	if err := mem.Create(rel); err != nil {
		t.Fatal(err)
	}
	f, _, err := p.Rel(storage.Mem, rel).NewBlock()
	if err != nil {
		t.Fatal(err)
	}
	f.Page()[100] = 1
	f.Page()[101] = 1
	f.MarkDirty()
	f.Release()
	if err := p.FlushRel(storage.Mem, rel); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	// Mutator: keeps bytes 100 and 101 equal, but is torn in between.
	go func() {
		defer wg.Done()
		for i := byte(2); !stop.Load(); i++ {
			g, err := p.Get(Tag{SM: storage.Mem, Rel: rel, Blk: 0})
			if err != nil {
				t.Error(err)
				return
			}
			g.LockContent()
			g.Page()[100] = i
			// The torn window: a flush here would persist 100 != 101.
			g.Page()[101] = i
			g.MarkDirty()
			g.UnlockContent()
			g.Release()
		}
	}()
	// Flusher.
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if err := p.FlushRel(storage.Mem, rel); err != nil {
				t.Error(err)
				return
			}
			// The device copy must never be torn.
			buf := make([]byte, 8192)
			if err := mem.ReadBlock(rel, 0, buf); err != nil {
				t.Error(err)
				return
			}
			if buf[100] != buf[101] {
				t.Errorf("torn page persisted: %d != %d", buf[100], buf[101])
				return
			}
		}
	}()
	time.Sleep(100 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
}

// TestContentLatchBlocksWriteBack: while a mutator holds a frame's
// exclusive latch, a relation flush must wait rather than write the page.
func TestContentLatchBlocksWriteBack(t *testing.T) {
	p, mem := newTestPool(t, 4)
	if err := mem.Create(rel); err != nil {
		t.Fatal(err)
	}
	f, _, err := p.Rel(storage.Mem, rel).NewBlock()
	if err != nil {
		t.Fatal(err)
	}
	f.LockContent()
	f.Page()[0] = 0xAA
	f.MarkDirty()

	done := make(chan error, 1)
	go func() { done <- p.FlushRel(storage.Mem, rel) }()
	select {
	case <-done:
		t.Fatal("flush completed while the content latch was held exclusive")
	case <-time.After(50 * time.Millisecond):
	}
	f.UnlockContent()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	f.Release()
	if n, _ := mem.NBlocks(rel); n != 1 {
		t.Fatalf("device nblocks = %d after flush", n)
	}
}

// TestSharedLatchReaders: multiple shared holders may coexist; an exclusive
// acquirer waits for all of them.
func TestSharedLatchReaders(t *testing.T) {
	p, mem := newTestPool(t, 4)
	if err := mem.Create(rel); err != nil {
		t.Fatal(err)
	}
	f, _, err := p.Rel(storage.Mem, rel).NewBlock()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	f.RLockContent()
	f.RLockContent() // a second shared holder is fine
	locked := make(chan struct{})
	go func() {
		f.LockContent()
		f.UnlockContent()
		close(locked)
	}()
	select {
	case <-locked:
		t.Fatal("exclusive latch acquired while shared holders exist")
	case <-time.After(50 * time.Millisecond):
	}
	f.RUnlockContent()
	f.RUnlockContent()
	select {
	case <-locked:
	case <-time.After(5 * time.Second):
		t.Fatal("exclusive latch never acquired after readers left")
	}
}

// TestPartitionCount: striping adapts to the pool size and never exceeds
// the frame budget.
func TestPartitionCount(t *testing.T) {
	cases := []struct{ frames, parts int }{
		{1, 1}, {2, 2}, {3, 2}, {8, 8}, {15, 8}, {16, 16}, {1024, 16},
	}
	for _, c := range cases {
		p, _ := newTestPool(t, c.frames)
		if got := p.Partitions(); got != c.parts {
			t.Errorf("frames=%d: partitions=%d, want %d", c.frames, got, c.parts)
		}
	}
}
