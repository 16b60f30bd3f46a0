package buffer

// Tests for the per-partition dirty counts that let the background writer
// pass clean partitions by. The invariant they keep: at quiesce, every
// partition's ndirty equals the number of its resident frames with dirty set.

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"postlob/internal/storage"
)

func TestDirtyCountSurvivesRandomOps(t *testing.T) {
	sw := storage.NewSwitch()
	dev := storage.NewFaultManager(storage.NewMemManager(storage.DeviceModel{}, nil))
	sw.Register(storage.Mem, dev)
	pool := NewPool(48, sw, nil)
	gauge0 := obsDirtyFrames.Load()
	checkGauge := func(when string) {
		t.Helper()
		sum, err := pool.CheckDirtyCounts()
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if g := obsDirtyFrames.Load() - gauge0; g != sum {
			t.Fatalf("%s: buffer.dirty_frames moved by %d, want %d", when, g, sum)
		}
	}

	// Each worker owns its relations (DropRel forbids concurrent access to
	// the relation being dropped) and shares the pool, its partitions and
	// the background writer with the others. With healthy false the device
	// fails every write, so write-backs, evictions of dirty victims and
	// non-discarding drops fail and their frames must stay dirty and counted.
	worker := func(id int, seed int64, steps int, healthy bool) error {
		rng := rand.New(rand.NewSource(seed))
		rels := []storage.RelName{
			storage.RelName(fmt.Sprintf("d%d_a", id)), storage.RelName(fmt.Sprintf("d%d_b", id)),
		}
		blocks := make([]storage.BlockNum, len(rels))
		for i, rel := range rels {
			if !dev.Exists(rel) {
				if err := dev.Create(rel); err != nil {
					return err
				}
			}
			n, err := pool.NBlocks(storage.Mem, rel)
			if err != nil {
				return err
			}
			blocks[i] = n
		}
		for step := 0; step < steps; step++ {
			i := rng.Intn(len(rels))
			rel := rels[i]
			switch op := rng.Intn(16); {
			case op < 4 || blocks[i] == 0: // extend
				f, _, err := pool.NewBlock(storage.Mem, rel)
				if err != nil {
					if healthy {
						return fmt.Errorf("NewBlock: %w", err)
					}
					continue // every victim is dirty and the device refuses it
				}
				f.Release()
				blocks[i]++
			case op < 10: // read a block, dirtying it half the time
				tag := Tag{SM: storage.Mem, Rel: rel, Blk: storage.BlockNum(rng.Intn(int(blocks[i])))}
				f, err := pool.Get(tag)
				if err != nil {
					if healthy {
						return fmt.Errorf("Get %v: %w", tag, err)
					}
					continue
				}
				if rng.Intn(2) == 0 {
					f.LockContent()
					f.Page()[rng.Intn(len(f.Page()))] = byte(rng.Int())
					f.MarkDirty()
					f.UnlockContent()
				}
				f.Release()
			case op < 12:
				pool.BgWriterRound(8)
				pool.TakeBackgroundError()
			case op < 13:
				// A checkpoint may race another worker's drop and unlink; only
				// the counts matter here, not whether this flush got through.
				pool.FlushAllIncremental(4)
			case op < 14: // drop and recreate, keeping or discarding dirty pages
				discard := !healthy || rng.Intn(2) == 0
				err := pool.DropRel(storage.Mem, rel, discard)
				for errors.Is(err, ErrPinned) {
					// A checkpoint pins the relation's dirty frames while it
					// writes them; the drop's caller retries.
					runtime.Gosched()
					err = pool.DropRel(storage.Mem, rel, discard)
				}
				if err != nil {
					return fmt.Errorf("DropRel: %w", err)
				}
				if err := dev.Unlink(rel); err != nil {
					return err
				}
				if err := dev.Create(rel); err != nil {
					return err
				}
				blocks[i] = 0
			}
		}
		return nil
	}
	// run drives the workers with the given engine attached, then stops it:
	// a live writer goroutine would move the counts under the check.
	run := func(phase string, cfg EngineConfig, workers int, healthy bool, seed int64) {
		t.Helper()
		pool.StartEngine(cfg)
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for id := range errs {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				errs[id] = worker(id, seed+int64(id), 500, healthy)
			}(id)
		}
		wg.Wait()
		pool.StopEngine()
		for id, err := range errs {
			if err != nil {
				t.Fatalf("%s, worker %d: %v", phase, id, err)
			}
		}
		checkGauge(phase)
	}

	// One seeded worker under a Manual engine is a replayable interleaving;
	// then concurrent workers race a live writer goroutine on a fast tick.
	manual := EngineConfig{BackgroundWriter: true, Manual: true}
	live := EngineConfig{BackgroundWriter: true, Interval: 50 * time.Microsecond}
	run("sequential", manual, 1, true, 1)
	run("concurrent", live, 4, true, 100)
	dev.FailWrites(true)
	run("failing writes", live, 4, false, 200)
	dev.Heal()
	pool.TakeBackgroundError()

	// Quiesce: a full checkpoint leaves nothing dirty and nothing counted.
	if err := pool.FlushAllIncremental(0); err != nil {
		t.Fatal(err)
	}
	checkGauge("after checkpoint")
	if n := countDirty(pool); n != 0 {
		t.Fatalf("%d frames dirty after a full checkpoint", n)
	}
}

// An idle round touches no frame and takes no partition lock: it is one
// atomic load per partition, however large the pool.
func TestBgWriterIdleRoundScansNothing(t *testing.T) {
	p, mem := newTestPool(t, 64)
	p.StartEngine(EngineConfig{BackgroundWriter: true, Manual: true})
	defer p.StopEngine()
	if err := mem.Create(rel); err != nil {
		t.Fatal(err)
	}
	dirtyBlocks(t, p, storage.Mem, rel, 64)
	for countDirty(p) > 0 {
		if _, err := p.BgWriterRound(0); err != nil {
			t.Fatal(err)
		}
	}
	scanned := obsBgScanned.Load()
	for i := 0; i < 10; i++ {
		if n, err := p.BgWriterRound(0); n != 0 || err != nil {
			t.Fatalf("idle round wrote %d, %v", n, err)
		}
	}
	if got := obsBgScanned.Load() - scanned; got != 0 {
		t.Fatalf("ten idle rounds over a clean 64-page pool visited %d frames, want 0", got)
	}

	// One dirty frame: the walk stops as soon as it has found it, so it
	// visits at most the frames of that one partition.
	f, err := p.Get(Tag{SM: storage.Mem, Rel: rel, Blk: 7})
	if err != nil {
		t.Fatal(err)
	}
	f.LockContent()
	f.MarkDirty()
	f.UnlockContent()
	f.Release()
	scanned = obsBgScanned.Load()
	if n, err := p.BgWriterRound(0); n != 1 || err != nil {
		t.Fatalf("round over one dirty frame wrote %d, %v", n, err)
	}
	if got, most := obsBgScanned.Load()-scanned, int64(len(f.part.lookup)); got < 1 || got > most {
		t.Fatalf("round over one dirty frame visited %d frames, want 1..%d", got, most)
	}
}

// BenchmarkBgWriterIdleRound runs writer rounds over a clean, fully resident
// 24,576-page pool, the size the scan_hot workload uses. The frames are
// installed directly, without page buffers: an idle round never looks at
// page bytes, and 24,576 real pages would be 192 MiB.
func BenchmarkBgWriterIdleRound(b *testing.B) {
	const frames = 24576
	p := NewPool(frames, storage.NewSwitch(), nil)
	for blk := 0; blk < frames; blk++ {
		tag := Tag{SM: storage.Mem, Rel: "idle", Blk: storage.BlockNum(blk)}
		part := p.part(tag)
		f := &Frame{pool: p, part: part, tag: tag}
		part.lookup[tag] = f
		part.lru.pushFrontLocked(f)
	}
	p.StartEngine(EngineConfig{BackgroundWriter: true, Manual: true})
	defer p.StopEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := p.BgWriterRound(0); n != 0 || err != nil {
			b.Fatalf("idle round wrote %d, %v", n, err)
		}
	}
}
