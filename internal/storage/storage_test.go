package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"postlob/internal/page"
	"postlob/internal/vclock"
)

// managers under test, constructed fresh per subtest.
func testManagers(t *testing.T) map[string]Manager {
	t.Helper()
	disk, err := NewDiskManager(t.TempDir(), DeviceModel{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	worm, err := NewWormManager(t.TempDir(), WormConfig{CacheBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Manager{
		"disk": disk,
		"mem":  NewMemManager(DeviceModel{}, nil),
		"worm": worm,
	}
}

func block(fill byte) []byte {
	b := make([]byte, page.Size)
	for i := range b {
		b[i] = fill
	}
	return b
}

func TestManagerConformance(t *testing.T) {
	for name, mgr := range testManagers(t) {
		t.Run(name, func(t *testing.T) {
			defer mgr.Close()
			const rel = RelName("r1")

			if mgr.Exists(rel) {
				t.Fatal("relation exists before Create")
			}
			if _, err := mgr.NBlocks(rel); !errors.Is(err, ErrNoRelation) {
				t.Fatalf("NBlocks before create: %v", err)
			}
			if err := mgr.Create(rel); err != nil {
				t.Fatal(err)
			}
			if err := mgr.Create(rel); !errors.Is(err, ErrRelExists) {
				t.Fatalf("double create: %v", err)
			}
			if !mgr.Exists(rel) {
				t.Fatal("relation missing after Create")
			}
			n, err := mgr.NBlocks(rel)
			if err != nil || n != 0 {
				t.Fatalf("NBlocks = %d, %v", n, err)
			}

			// Append three blocks, read them back.
			for i := byte(0); i < 3; i++ {
				if err := mgr.WriteBlock(rel, BlockNum(i), block('a'+i)); err != nil {
					t.Fatalf("write %d: %v", i, err)
				}
			}
			n, _ = mgr.NBlocks(rel)
			if n != 3 {
				t.Fatalf("NBlocks = %d, want 3", n)
			}
			buf := make([]byte, page.Size)
			for i := byte(0); i < 3; i++ {
				if err := mgr.ReadBlock(rel, BlockNum(i), buf); err != nil {
					t.Fatalf("read %d: %v", i, err)
				}
				if !bytes.Equal(buf, block('a'+i)) {
					t.Fatalf("block %d content mismatch", i)
				}
			}

			// Rewrite the middle block.
			if err := mgr.WriteBlock(rel, 1, block('Z')); err != nil {
				t.Fatalf("rewrite: %v", err)
			}
			if err := mgr.ReadBlock(rel, 1, buf); err != nil {
				t.Fatal(err)
			}
			if buf[0] != 'Z' {
				t.Fatalf("rewrite not visible: %c", buf[0])
			}

			// Out-of-range accesses.
			if err := mgr.ReadBlock(rel, 99, buf); !errors.Is(err, ErrBadBlock) {
				t.Fatalf("read oob: %v", err)
			}
			if err := mgr.WriteBlock(rel, 99, buf); !errors.Is(err, ErrBadBlock) {
				t.Fatalf("write oob: %v", err)
			}

			// Short buffers rejected.
			if err := mgr.ReadBlock(rel, 0, buf[:10]); !errors.Is(err, ErrShortBuffer) {
				t.Fatalf("short read buf: %v", err)
			}
			if err := mgr.WriteBlock(rel, 0, buf[:10]); !errors.Is(err, ErrShortBuffer) {
				t.Fatalf("short write buf: %v", err)
			}

			if err := mgr.Sync(rel); err != nil {
				t.Fatalf("sync: %v", err)
			}
			sz, err := mgr.Size(rel)
			if err != nil || sz < 3*page.Size {
				t.Fatalf("Size = %d, %v", sz, err)
			}

			if err := mgr.Unlink(rel); err != nil {
				t.Fatal(err)
			}
			if mgr.Exists(rel) {
				t.Fatal("relation exists after Unlink")
			}
		})
	}
}

func TestManagerRandomizedModel(t *testing.T) {
	for name, mgr := range testManagers(t) {
		t.Run(name, func(t *testing.T) {
			defer mgr.Close()
			const rel = RelName("rand")
			if err := mgr.Create(rel); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(42))
			var model [][]byte
			buf := make([]byte, page.Size)
			for op := 0; op < 400; op++ {
				if len(model) == 0 || rng.Intn(3) == 0 {
					b := block(byte(rng.Intn(256)))
					blk := BlockNum(len(model))
					if rng.Intn(4) == 0 && len(model) > 0 {
						blk = BlockNum(rng.Intn(len(model)))
					}
					if err := mgr.WriteBlock(rel, blk, b); err != nil {
						t.Fatalf("op %d write: %v", op, err)
					}
					if int(blk) == len(model) {
						model = append(model, b)
					} else {
						model[blk] = b
					}
				} else {
					blk := rng.Intn(len(model))
					if err := mgr.ReadBlock(rel, BlockNum(blk), buf); err != nil {
						t.Fatalf("op %d read: %v", op, err)
					}
					if !bytes.Equal(buf, model[blk]) {
						t.Fatalf("op %d block %d mismatch", op, blk)
					}
				}
			}
		})
	}
}

func TestSwitchRegistry(t *testing.T) {
	sw := NewSwitch()
	mem := NewMemManager(DeviceModel{}, nil)
	sw.Register(Mem, mem)
	got, err := sw.Get(Mem)
	if err != nil || got != mem {
		t.Fatalf("Get = %v, %v", got, err)
	}
	if _, err := sw.Get(Worm); !errors.Is(err, ErrUnregistered) {
		t.Fatalf("unregistered: %v", err)
	}
	// User-defined manager under a custom ID — the §7 extension point.
	const custom ID = 7
	sw.Register(custom, NewMemManager(DeviceModel{}, nil))
	ids := sw.IDs()
	if len(ids) != 2 || ids[0] != Mem || ids[1] != custom {
		t.Fatalf("IDs = %v", ids)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Get(Mem); err == nil {
		t.Fatal("Get after Close succeeded")
	}
}

func TestDeviceModelCharging(t *testing.T) {
	var clk vclock.Clock
	model := DeviceModel{Seek: 10 * time.Millisecond, PerByte: time.Microsecond}
	mgr := NewMemManager(model, &clk)
	defer mgr.Close()
	const rel = RelName("charged")
	if err := mgr.Create(rel); err != nil {
		t.Fatal(err)
	}
	b := block(1)
	// First access: random (seek + transfer).
	if err := mgr.WriteBlock(rel, 0, b); err != nil {
		t.Fatal(err)
	}
	want := model.BlockCost(false)
	if got := clk.Now(); got != want {
		t.Fatalf("first access cost = %v, want %v", got, want)
	}
	// Sequential append: transfer only.
	clk.Reset()
	if err := mgr.WriteBlock(rel, 1, b); err != nil {
		t.Fatal(err)
	}
	if got, want := clk.Now(), model.BlockCost(true); got != want {
		t.Fatalf("sequential cost = %v, want %v", got, want)
	}
	// Backward access: seek again.
	clk.Reset()
	buf := make([]byte, page.Size)
	if err := mgr.ReadBlock(rel, 0, buf); err != nil {
		t.Fatal(err)
	}
	if got, want := clk.Now(), model.BlockCost(false); got != want {
		t.Fatalf("random cost = %v, want %v", got, want)
	}
}

func TestDiskManagerPersistence(t *testing.T) {
	dir := t.TempDir()
	mgr, err := NewDiskManager(dir, DeviceModel{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const rel = RelName("persist")
	if err := mgr.Create(rel); err != nil {
		t.Fatal(err)
	}
	if err := mgr.WriteBlock(rel, 0, block('P')); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Sync(rel); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := NewDiskManager(dir, DeviceModel{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	buf := make([]byte, page.Size)
	if err := reopened.ReadBlock(rel, 0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 'P' {
		t.Fatalf("persisted byte = %c", buf[0])
	}
}

// The disk manager tracks a file's length as its own writes extend it, and a
// manager that opens the file later takes the length from the file system.
func TestDiskManagerTracksLength(t *testing.T) {
	dir := t.TempDir()
	const rel = RelName("r")
	nblocks := func(m Manager, want BlockNum) {
		t.Helper()
		if n, err := m.NBlocks(rel); err != nil || n != want {
			t.Fatalf("NBlocks = %d, %v; want %d", n, err, want)
		}
	}
	d, err := NewDiskManager(dir, DeviceModel{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Create(rel); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBlocks(rel, 0, [][]byte{block('a'), block('b'), block('c')}); err != nil {
		t.Fatal(err)
	}
	nblocks(d, 3)
	if err := d.WriteBlock(rel, 1, block('B')); err != nil {
		t.Fatal(err)
	}
	nblocks(d, 3)
	if err := d.WriteBlock(rel, 3, block('d')); err != nil {
		t.Fatal(err)
	}
	nblocks(d, 4)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d, err = NewDiskManager(dir, DeviceModel{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	nblocks(d, 4)
	if err := d.WriteBlock(rel, 5, block('f')); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("write past the end: %v", err)
	}
	if err := d.WriteBlock(rel, 4, block('e')); err != nil {
		t.Fatal(err)
	}
	nblocks(d, 5)
}

// The free list keeps a stage up to maxStagePages long and drops a longer
// one, so one gap-sized write-back does not pin its buffer for good.
func TestDiskDropsOversizedStage(t *testing.T) {
	d, err := NewDiskManager(t.TempDir(), DeviceModel{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.putStage(d.getStage(maxStagePages + 1))
	if n := len(d.stages); n != 0 {
		t.Fatalf("free list kept an oversized stage (%d held)", n)
	}
	d.putStage(d.getStage(maxStagePages))
	if n := len(d.stages); n != 1 {
		t.Fatalf("free list holds %d stages after a full-size batch, want 1", n)
	}
}

// A batched read or gather write stages through the manager's free list, so
// once the list holds a buffer big enough it allocates nothing, and a
// collection between batches does not empty the list.
func TestDiskReadBlocksAllocs(t *testing.T) {
	d, err := NewDiskManager(t.TempDir(), DeviceModel{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const rel = RelName("r")
	if err := d.Create(rel); err != nil {
		t.Fatal(err)
	}
	src := [][]byte{block('a'), block('b'), block('c'), block('d')}
	if err := d.WriteBlocks(rel, 0, src); err != nil {
		t.Fatal(err)
	}
	dst := [][]byte{make([]byte, page.Size), make([]byte, page.Size), make([]byte, page.Size), make([]byte, page.Size)}
	read := func() {
		if err := d.ReadBlocks(rel, 0, dst); err != nil {
			t.Fatal(err)
		}
	}
	read()
	if got := testing.AllocsPerRun(20, read); got != 0 {
		t.Errorf("ReadBlocks of %d blocks allocates %v times", len(dst), got)
	}
	write := func() {
		if err := d.WriteBlocks(rel, 0, src); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(20, write); got != 0 {
		t.Errorf("WriteBlocks of %d scattered blocks allocates %v times", len(src), got)
	}
	// Two collections empty a sync.Pool. The batches after them must still
	// find their staging buffer; the runtime's own background work after a
	// collection allocates a few small objects, so count bytes, not objects.
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		read()
		write()
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= page.Size {
			t.Fatalf("batches after a collection allocate %d bytes: the staging buffer was lost", got)
		}
	}
	for i := range dst {
		if !bytes.Equal(dst[i], src[i]) {
			t.Fatalf("block %d read back wrong", i)
		}
	}
}
