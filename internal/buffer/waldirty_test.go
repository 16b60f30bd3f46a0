package buffer

// Tests for the per-partition WAL-dirty lists that replaced LogDirtyPages'
// scan of every frame. The invariant they keep: with no LogDirtyPages call in
// flight, every resident frame whose walDirty flag is set is on its
// partition's list, so draining the lists finds exactly what the scan found.

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"postlob/internal/storage"
	"postlob/internal/wal"
)

// unreachableWALDirty returns the resident frames that are flagged walDirty
// but absent from their partition's list.
func unreachableWALDirty(p *Pool) []Tag {
	var missing []Tag
	for _, part := range p.parts {
		part.mu.Lock()
		part.wdMu.Lock()
		listed := make(map[*Frame]bool, len(part.wdList))
		for _, e := range part.wdList {
			if e.key == e.f.key() {
				listed[e.f] = true
			}
		}
		for _, f := range part.lookup {
			if f.walDirty.Load() && !listed[f] {
				missing = append(missing, f.Tag())
			}
		}
		part.wdMu.Unlock()
		part.mu.Unlock()
	}
	return missing
}

func assertWALDirtyReachable(t *testing.T, p *Pool, when string) {
	t.Helper()
	if missing := unreachableWALDirty(p); len(missing) > 0 {
		t.Fatalf("%s: %d frames flagged walDirty but on no list, e.g. %v", when, len(missing), missing[0])
	}
}

// newFaultyWALPool is newWALPool with the log on a device of its own that
// can be made to fail, which poisons the log: every later append errors.
func newFaultyWALPool(t *testing.T, cap int) (*Pool, *wal.Log, *storage.FaultManager) {
	t.Helper()
	sw := storage.NewSwitch()
	sw.Register(storage.Mem, storage.NewMemManager(storage.DeviceModel{}, nil))
	pool := NewPool(cap, sw, nil)
	dev := storage.NewFaultManager(storage.NewMemManager(storage.DeviceModel{}, nil))
	log, err := wal.Open(dev, wal.Config{SegBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	pool.AttachWAL(log)
	return pool, log, dev
}

func poisonLog(t *testing.T, log *wal.Log, dev *storage.FaultManager) {
	t.Helper()
	if _, err := log.AppendAbort(1); err != nil {
		t.Fatal(err)
	}
	dev.FailWrites(true)
	if err := log.Flush(log.End()); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("flush against a failing device = %v", err)
	}
	dev.Heal()
}

func TestWALDirtyListSurvivesRandomOps(t *testing.T) {
	pool, log, dev := newFaultyWALPool(t, 48)
	pool.StartEngine(EngineConfig{Manual: true})
	defer pool.StopEngine()
	mgr, err := pool.Switch().Get(storage.Mem)
	if err != nil {
		t.Fatal(err)
	}

	// Each worker owns its relations (DropRel forbids concurrent access to
	// the relation being dropped) and shares the pool, its partitions, the
	// log and the background writer with the others.
	worker := func(id int, seed int64, steps int, healthy bool) error {
		rng := rand.New(rand.NewSource(seed))
		rels := []storage.RelName{
			storage.RelName(fmt.Sprintf("w%d_a", id)), storage.RelName(fmt.Sprintf("w%d_b", id)),
		}
		blocks := make([]storage.BlockNum, len(rels))
		for i, rel := range rels {
			if !mgr.Exists(rel) {
				if err := mgr.Create(rel); err != nil {
					return err
				}
			}
			n, err := pool.Rel(storage.Mem, rel).NBlocks()
			if err != nil {
				return err
			}
			blocks[i] = n
		}
		mutate := func(f *Frame) {
			f.LockContent()
			f.Page()[rng.Intn(len(f.Page()))] = byte(rng.Int())
			f.MarkDirty()
			f.UnlockContent()
		}
		for step := 0; step < steps; step++ {
			i := rng.Intn(len(rels))
			rel := rels[i]
			switch op := rng.Intn(16); {
			case op < 4 || blocks[i] == 0: // extend
				f, _, err := pool.Rel(storage.Mem, rel).NewBlock()
				if err != nil {
					if healthy {
						return fmt.Errorf("NewBlock: %w", err)
					}
					continue // a poisoned log leaves no evictable frame
				}
				mutate(f)
				f.Release()
				blocks[i]++
			case op < 10: // rewrite a block, then log and check it was covered
				tag := Tag{SM: storage.Mem, Rel: rel, Blk: storage.BlockNum(rng.Intn(int(blocks[i])))}
				f, err := pool.Get(tag)
				if err != nil {
					if healthy {
						return fmt.Errorf("Get %v: %w", tag, err)
					}
					continue
				}
				mutate(f)
				if rng.Intn(2) == 0 {
					_, err := pool.LogDirtyPages(uint32(id))
					if healthy && err != nil {
						f.Release()
						return fmt.Errorf("LogDirtyPages: %w", err)
					}
					// Whoever took this frame off its list — this call or a
					// concurrent one it had to wait for — has appended its
					// image by now: nothing of this worker's is left behind
					// for a commit record to overtake.
					if err == nil && f.walDirty.Load() {
						f.Release()
						return fmt.Errorf("%v still walDirty after LogDirtyPages returned", tag)
					}
				}
				f.Release()
			case op < 12:
				if _, err := pool.BgWriterRound(8); err != nil && healthy {
					return fmt.Errorf("BgWriterRound: %w", err)
				}
				pool.TakeBackgroundError()
			case op < 13:
				if err := pool.FlushRel(storage.Mem, rel); err != nil && healthy {
					return fmt.Errorf("FlushRel: %w", err)
				}
			case op < 14: // drop and recreate, keeping or discarding dirty pages
				drop := func() error { return pool.DropRel(storage.Mem, rel) }
				if !healthy || rng.Intn(2) == 0 {
					drop = func() error { return pool.Unlink(storage.Mem, rel) }
				}
				err := drop()
				for errors.Is(err, ErrPinned) {
					// Another worker's LogDirtyPages holds a pin for as long
					// as it takes to copy the page; the drop's caller retries.
					runtime.Gosched()
					err = drop()
				}
				if err != nil {
					return fmt.Errorf("drop: %w", err)
				}
				if mgr.Exists(rel) {
					if err := mgr.Unlink(rel); err != nil {
						return err
					}
				}
				if err := mgr.Create(rel); err != nil {
					return err
				}
				blocks[i] = 0
			}
		}
		return nil
	}
	run := func(phase string, healthy bool, seed int64) {
		var wg sync.WaitGroup
		errs := make([]error, 4)
		for id := range errs {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				errs[id] = worker(id, seed+int64(id), 600, healthy)
			}(id)
		}
		wg.Wait()
		for id, err := range errs {
			if err != nil {
				t.Fatalf("%s, worker %d: %v", phase, id, err)
			}
		}
		assertWALDirtyReachable(t, pool, phase)
		if _, err := pool.CheckDirtyCounts(); err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		if err := pool.CheckRelDirtyCounts(); err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
	}
	run("healthy log", true, 100)

	// Every append now fails. Frames taken off a list and not logged must go
	// back on it, whichever path took them.
	poisonLog(t, log, dev)
	run("poisoned log", false, 200)
	if _, err := pool.LogDirtyPages(0); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("LogDirtyPages on a poisoned log = %v", err)
	}
	assertWALDirtyReachable(t, pool, "after a failed LogDirtyPages")
}

func TestLogDirtyPagesRequeuesOnAppendError(t *testing.T) {
	pool, log, dev := newFaultyWALPool(t, 16)
	for i := 0; i < 5; i++ {
		dirtyBlock(t, pool, "rel_q", byte(i))
	}
	poisonLog(t, log, dev)
	for attempt := 0; attempt < 3; attempt++ {
		if _, err := pool.LogDirtyPages(7); !errors.Is(err, storage.ErrInjected) {
			t.Fatalf("attempt %d: LogDirtyPages = %v, want the injected fault", attempt, err)
		}
		flagged := 0
		for _, part := range pool.parts {
			part.mu.Lock()
			for _, f := range part.lookup {
				if f.walDirty.Load() {
					flagged++
				}
			}
			part.mu.Unlock()
		}
		if flagged != 5 {
			t.Fatalf("attempt %d: %d frames still flagged, want 5", attempt, flagged)
		}
		assertWALDirtyReachable(t, pool, fmt.Sprintf("attempt %d", attempt))
	}
}

// Pages modified before a log is attached (a promoted replica's replayed
// images) must be found by the first LogDirtyPages after AttachWAL.
func TestAttachWALQueuesEarlierModifications(t *testing.T) {
	om := &orderMgr{Manager: storage.NewMemManager(storage.DeviceModel{}, nil)}
	sw := storage.NewSwitch()
	sw.Register(storage.Mem, om)
	pool := NewPool(16, sw, nil)
	for i := 0; i < 4; i++ {
		dirtyBlock(t, pool, "rel_early", byte(i))
	}
	if missing := unreachableWALDirty(pool); len(missing) != 4 {
		t.Fatalf("%d frames unlisted before a log exists, want all 4 (nothing drains the lists yet)", len(missing))
	}
	log, err := wal.Open(om, wal.Config{SegBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	pool.AttachWAL(log)
	assertWALDirtyReachable(t, pool, "after AttachWAL")
	if _, err := pool.LogDirtyPages(0); err != nil {
		t.Fatal(err)
	}
	if got := replayImages(t, log, om); len(got) != 4 {
		t.Fatalf("%d images logged after AttachWAL, want 4", len(got))
	}
}
