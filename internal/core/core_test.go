package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"postlob/internal/adt"
	"postlob/internal/buffer"
	"postlob/internal/catalog"
	"postlob/internal/compress"
	"postlob/internal/heap"
	"postlob/internal/storage"
	"postlob/internal/txn"
)

// newTestStore builds a store over mem+disk managers in a temp dir.
func newTestStore(t testing.TB) *Store {
	t.Helper()
	dir := t.TempDir()
	sw := storage.NewSwitch()
	sw.Register(storage.Mem, storage.NewMemManager(storage.DeviceModel{}, nil))
	disk, err := storage.NewDiskManager(filepath.Join(dir, "data"), storage.DeviceModel{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sw.Register(storage.Disk, disk)
	pool := &heap.Pool{Buf: buffer.NewPool(512, sw, nil), Mgr: txn.NewManager()}
	reg := adt.NewRegistry()
	return NewStore(pool, catalog.NewMemory(), reg, Config{
		FilesDir:  filepath.Join(dir, "pfiles"),
		DefaultSM: storage.Mem,
	})
}

func (s *Store) mgr() *txn.Manager { return s.pool.Mgr }

// allKinds enumerates the four implementations with create options.
func allKinds(t *testing.T, dir string) []CreateOptions {
	return []CreateOptions{
		{Kind: adt.KindUFile, Path: filepath.Join(dir, "ufile.bin")},
		{Kind: adt.KindPFile},
		{Kind: adt.KindFChunk},
		{Kind: adt.KindFChunk, Codec: "fast"},
		{Kind: adt.KindVSegment, Codec: "tight"},
	}
}

func optName(o CreateOptions) string {
	n := o.Kind.String()
	if o.Codec != "" {
		n += "+" + o.Codec
	}
	return n
}

func TestWriteReadSeekAllKinds(t *testing.T) {
	dir := t.TempDir()
	for _, opts := range allKinds(t, dir) {
		opts := opts
		t.Run(optName(opts), func(t *testing.T) {
			s := newTestStore(t)
			tx := s.mgr().Begin()
			ref, obj, err := s.Create(tx, opts)
			if err != nil {
				t.Fatal(err)
			}
			payload := compress.GenFrame(1, 20000, 0.3)
			if n, err := obj.Write(payload); err != nil || n != len(payload) {
				t.Fatalf("write = %d, %v", n, err)
			}
			// Read back from the same handle.
			if _, err := obj.Seek(0, io.SeekStart); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(payload))
			if _, err := io.ReadFull(obj, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatal("read-back mismatch")
			}
			// Seek into the middle.
			if _, err := obj.Seek(9000, io.SeekStart); err != nil {
				t.Fatal(err)
			}
			mid := make([]byte, 2000)
			if _, err := io.ReadFull(obj, mid); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mid, payload[9000:11000]) {
				t.Fatal("mid-range read mismatch")
			}
			// Seek from end.
			if pos, err := obj.Seek(-100, io.SeekEnd); err != nil || pos != int64(len(payload)-100) {
				t.Fatalf("seek end = %d, %v", pos, err)
			}
			tail := make([]byte, 100)
			if _, err := io.ReadFull(obj, tail); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(tail, payload[len(payload)-100:]) {
				t.Fatal("tail read mismatch")
			}
			// EOF past end.
			if _, err := obj.Read(make([]byte, 10)); err != io.EOF {
				t.Fatalf("read at EOF: %v", err)
			}
			sz, err := obj.Size()
			if err != nil || sz != int64(len(payload)) {
				t.Fatalf("Size = %d, %v", sz, err)
			}
			if err := obj.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Commit(); err != nil {
				t.Fatal(err)
			}

			// Reopen in a fresh transaction.
			tx2 := s.mgr().Begin()
			defer tx2.Abort()
			obj2, err := s.Open(tx2, ref)
			if err != nil {
				t.Fatal(err)
			}
			defer obj2.Close()
			got2 := make([]byte, len(payload))
			if _, err := io.ReadFull(obj2, got2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got2, payload) {
				t.Fatal("reopened read mismatch")
			}
		})
	}
}

func TestRandomReplaceAllKinds(t *testing.T) {
	dir := t.TempDir()
	for _, opts := range allKinds(t, dir) {
		opts := opts
		t.Run(optName(opts), func(t *testing.T) {
			s := newTestStore(t)
			tx := s.mgr().Begin()
			ref, obj, err := s.Create(tx, opts)
			if err != nil {
				t.Fatal(err)
			}
			const frame = 1024
			const frames = 40
			model := make([]byte, frame*frames)
			rng := rand.New(rand.NewSource(2))
			rng.Read(model)
			if _, err := obj.Write(model); err != nil {
				t.Fatal(err)
			}
			// Random frame replacements.
			for i := 0; i < 100; i++ {
				f := rng.Intn(frames)
				newData := compress.GenFrame(int64(i), frame, 0.5)
				copy(model[f*frame:], newData)
				if _, err := obj.Seek(int64(f*frame), io.SeekStart); err != nil {
					t.Fatal(err)
				}
				if _, err := obj.Write(newData); err != nil {
					t.Fatalf("replace %d: %v", i, err)
				}
			}
			// Random reads validate against the model.
			for i := 0; i < 100; i++ {
				off := rng.Intn(len(model) - 256)
				n := 1 + rng.Intn(256)
				if _, err := obj.Seek(int64(off), io.SeekStart); err != nil {
					t.Fatal(err)
				}
				got := make([]byte, n)
				if _, err := io.ReadFull(obj, got); err != nil {
					t.Fatalf("read %d: %v", i, err)
				}
				if !bytes.Equal(got, model[off:off+n]) {
					t.Fatalf("read %d at %d mismatch", i, off)
				}
			}
			obj.Close()
			tx.Commit()
			// Full validation after commit.
			tx2 := s.mgr().Begin()
			defer tx2.Abort()
			obj2, err := s.Open(tx2, ref)
			if err != nil {
				t.Fatal(err)
			}
			defer obj2.Close()
			got := make([]byte, len(model))
			if _, err := io.ReadFull(obj2, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, model) {
				t.Fatal("post-commit mismatch")
			}
		})
	}
}

func TestTransactionalAbort(t *testing.T) {
	for _, kind := range []adt.StorageKind{adt.KindFChunk, adt.KindVSegment} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			s := newTestStore(t)
			// Commit v1.
			tx1 := s.mgr().Begin()
			ref, obj, err := s.Create(tx1, CreateOptions{Kind: kind})
			if err != nil {
				t.Fatal(err)
			}
			v1 := bytes.Repeat([]byte{0xAA}, 10000)
			obj.Write(v1)
			obj.Close()
			tx1.Commit()

			// Overwrite in tx2, then abort.
			tx2 := s.mgr().Begin()
			obj2, err := s.Open(tx2, ref)
			if err != nil {
				t.Fatal(err)
			}
			obj2.Seek(0, io.SeekStart)
			obj2.Write(bytes.Repeat([]byte{0xBB}, 10000))
			obj2.Close()
			tx2.Abort()

			// v1 intact.
			tx3 := s.mgr().Begin()
			defer tx3.Abort()
			obj3, err := s.Open(tx3, ref)
			if err != nil {
				t.Fatal(err)
			}
			defer obj3.Close()
			got := make([]byte, len(v1))
			if _, err := io.ReadFull(obj3, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, v1) {
				t.Fatalf("aborted write leaked: first byte %#x", got[0])
			}
		})
	}
}

func TestTimeTravelObjects(t *testing.T) {
	for _, kind := range []adt.StorageKind{adt.KindFChunk, adt.KindVSegment} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			s := newTestStore(t)
			codec := ""
			if kind == adt.KindVSegment {
				codec = "fast"
			}
			tx1 := s.mgr().Begin()
			ref, obj, err := s.Create(tx1, CreateOptions{Kind: kind, Codec: codec})
			if err != nil {
				t.Fatal(err)
			}
			v1 := bytes.Repeat([]byte("epoch-one."), 2000)
			obj.Write(v1)
			obj.Close()
			ts1, _ := tx1.Commit()

			tx2 := s.mgr().Begin()
			obj2, _ := s.Open(tx2, ref)
			obj2.Seek(5000, io.SeekStart)
			patch := bytes.Repeat([]byte("EPOCH-TWO!"), 500)
			obj2.Write(patch)
			obj2.Close()
			ts2, _ := tx2.Commit()

			// As of ts1: the original contents.
			h1, err := s.OpenAsOf(ts1, ref)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(v1))
			if _, err := io.ReadFull(h1, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, v1) {
				t.Fatal("ts1 view mismatch")
			}
			// Historical handles are read-only.
			if _, err := h1.Write([]byte("x")); !errors.Is(err, ErrReadOnly) {
				t.Fatalf("asof write: %v", err)
			}
			if err := h1.Truncate(0); !errors.Is(err, ErrReadOnly) {
				t.Fatalf("asof truncate: %v", err)
			}
			h1.Close()

			// As of ts2: the patched contents.
			want := append([]byte(nil), v1...)
			copy(want[5000:], patch)
			h2, err := s.OpenAsOf(ts2, ref)
			if err != nil {
				t.Fatal(err)
			}
			got2 := make([]byte, len(want))
			if _, err := io.ReadFull(h2, got2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got2, want) {
				t.Fatal("ts2 view mismatch")
			}
			h2.Close()
		})
	}
}

func TestTimeTravelUnsupportedOnFiles(t *testing.T) {
	s := newTestStore(t)
	tx := s.mgr().Begin()
	ref, obj, err := s.Create(tx, CreateOptions{Kind: adt.KindPFile})
	if err != nil {
		t.Fatal(err)
	}
	obj.Close()
	ts, _ := tx.Commit()
	if _, err := s.OpenAsOf(ts, ref); !errors.Is(err, ErrNoTravel) {
		t.Fatalf("err = %v", err)
	}
}

func TestTruncate(t *testing.T) {
	dir := t.TempDir()
	for _, opts := range allKinds(t, dir) {
		opts := opts
		t.Run(optName(opts), func(t *testing.T) {
			s := newTestStore(t)
			tx := s.mgr().Begin()
			_, obj, err := s.Create(tx, opts)
			if err != nil {
				t.Fatal(err)
			}
			data := compress.GenFrame(7, 25000, 0.3)
			obj.Write(data)
			if err := obj.Truncate(12345); err != nil {
				t.Fatal(err)
			}
			if sz, _ := obj.Size(); sz != 12345 {
				t.Fatalf("size after truncate = %d", sz)
			}
			obj.Seek(0, io.SeekStart)
			got, err := io.ReadAll(obj)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data[:12345]) {
				t.Fatal("truncated contents mismatch")
			}
			// Extend-by-truncate reads zeros.
			if err := obj.Truncate(13000); err != nil {
				t.Fatal(err)
			}
			obj.Seek(12345, io.SeekStart)
			tail, err := io.ReadAll(obj)
			if err != nil {
				t.Fatal(err)
			}
			if len(tail) != 13000-12345 {
				t.Fatalf("tail len = %d", len(tail))
			}
			for _, b := range tail {
				if b != 0 {
					t.Fatal("extended region not zero")
				}
			}
			obj.Close()
			tx.Commit()
		})
	}
}

func TestFChunkCompressionFootprint(t *testing.T) {
	// 50 % compression packs two chunks per page; 30 % saves nothing.
	s := newTestStore(t)
	const size = 40 * DefaultChunkSize

	measure := func(codec string, frac float64) StorageFootprint {
		tx := s.mgr().Begin()
		ref, obj, err := s.Create(tx, CreateOptions{Kind: adt.KindFChunk, Codec: codec})
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < size; off += DefaultChunkSize {
			obj.Write(compress.GenFrame(int64(off), DefaultChunkSize, frac))
		}
		obj.Close()
		tx.Commit()
		fp, err := s.Footprint(ref)
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}

	raw := measure("", 0.5)
	c30 := measure("fast", 0.3)
	c50 := measure("tight", 0.5)
	t.Logf("raw=%d c30=%d c50=%d (data bytes)", raw.Data, c30.Data, c50.Data)
	if c30.Data != raw.Data {
		t.Errorf("30%% compression changed footprint: %d vs %d (paper: no savings)", c30.Data, raw.Data)
	}
	if c50.Data > raw.Data*6/10 {
		t.Errorf("50%% compression footprint %d, want ~half of %d", c50.Data, raw.Data)
	}
	if raw.Index <= 0 {
		t.Error("no index footprint")
	}
}

func TestVSegmentCompressionFootprint(t *testing.T) {
	// v-segment reflects any compression ratio in stored size (vs f-chunk
	// which wastes sub-half savings).
	s := newTestStore(t)
	const size = 64 * 4096
	tx := s.mgr().Begin()
	ref, obj, err := s.Create(tx, CreateOptions{Kind: adt.KindVSegment, Codec: "fast"})
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < size; off += 4096 {
		obj.Write(compress.GenFrame(int64(off), 4096, 0.3))
	}
	obj.Close()
	tx.Commit()
	fp, err := s.Footprint(ref)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("vsegment: data=%d map=%d mapIdx=%d total=%d for %d logical", fp.Data, fp.Map, fp.MapIndex, fp.Total(), size)
	if fp.Data < int64(size)*60/100 || fp.Data > int64(size)*82/100 {
		t.Errorf("v-segment 30%% data footprint = %d (%.2f of logical), want ~0.72", fp.Data, float64(fp.Data)/float64(size))
	}
	if fp.Map <= 0 || fp.MapIndex <= 0 {
		t.Error("missing segment map footprint")
	}
}

func TestCreateFromLargeType(t *testing.T) {
	s := newTestStore(t)
	sm := storage.Mem
	if err := s.reg.CreateLargeType(adt.LargeType{
		Name: "image", Kind: adt.KindVSegment, Codec: compress.Tight{}, SM: sm,
	}); err != nil {
		t.Fatal(err)
	}
	tx := s.mgr().Begin()
	ref, obj, err := s.Create(tx, CreateOptions{TypeName: "image"})
	if err != nil {
		t.Fatal(err)
	}
	if ref.TypeName != "image" {
		t.Fatalf("ref type = %q", ref.TypeName)
	}
	obj.Write([]byte("pretend this is a picture"))
	obj.Close()
	tx.Commit()
	meta, err := s.cat.Object(catalog.OID(ref.OID))
	if err != nil || meta.Kind != adt.KindVSegment || meta.Codec != "tight" {
		t.Fatalf("meta = %+v, %v", meta, err)
	}
	if _, _, err := s.Create(s.mgr().Begin(), CreateOptions{TypeName: "nosuch"}); !errors.Is(err, ErrNoSuchType) {
		t.Fatalf("unknown type: %v", err)
	}
}

func TestUnlink(t *testing.T) {
	dir := t.TempDir()
	for _, opts := range allKinds(t, dir) {
		opts := opts
		t.Run(optName(opts), func(t *testing.T) {
			s := newTestStore(t)
			tx := s.mgr().Begin()
			ref, obj, err := s.Create(tx, opts)
			if err != nil {
				t.Fatal(err)
			}
			obj.Write([]byte("doomed"))
			obj.Close()
			tx.Commit()

			var pfilePath string
			if opts.Kind == adt.KindPFile {
				meta, _ := s.cat.Object(catalog.OID(ref.OID))
				pfilePath = meta.Path
			}
			if err := s.Unlink(ref); err != nil {
				t.Fatal(err)
			}
			tx2 := s.mgr().Begin()
			defer tx2.Abort()
			if _, err := s.Open(tx2, ref); !errors.Is(err, catalog.ErrNoObject) {
				t.Fatalf("open after unlink: %v", err)
			}
			switch opts.Kind {
			case adt.KindUFile:
				if _, err := os.Stat(opts.Path); err != nil {
					t.Fatal("u-file unlink removed the user's file")
				}
			case adt.KindPFile:
				if _, err := os.Stat(pfilePath); !errors.Is(err, os.ErrNotExist) {
					t.Fatal("p-file not removed")
				}
			}
		})
	}
}

func TestNewFilename(t *testing.T) {
	s := newTestStore(t)
	a, err := s.NewFilename()
	if err != nil {
		t.Fatal(err)
	}
	os.WriteFile(a, []byte("x"), 0o644)
	b, err := s.NewFilename()
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("NewFilename repeated a name")
	}
}

func TestSessionTempGC(t *testing.T) {
	s := newTestStore(t)
	tx := s.mgr().Begin()
	ss := s.NewSession(tx)

	refKeep, objKeep, err := ss.CreateTemp("")
	if err != nil {
		t.Fatal(err)
	}
	objKeep.Write([]byte("kept"))
	refDrop, objDrop, err := ss.CreateTemp("")
	if err != nil {
		t.Fatal(err)
	}
	objDrop.Write([]byte("dropped"))

	if err := ss.Keep(refKeep); err != nil {
		t.Fatal(err)
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	// The kept object survives; the other is gone.
	tx2 := s.mgr().Begin()
	defer tx2.Abort()
	obj, err := s.Open(tx2, refKeep)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(obj)
	obj.Close()
	if string(data) != "kept" {
		t.Fatalf("kept = %q", data)
	}
	if _, err := s.Open(tx2, refDrop); !errors.Is(err, catalog.ErrNoObject) {
		t.Fatalf("dropped temp still opens: %v", err)
	}
	// Keep of a non-temp errors.
	if err := s.NewSession(tx2).Keep(refKeep); err == nil {
		t.Fatal("Keep of non-temp accepted")
	}
}

func TestSessionVSegmentTempKeepsByteStore(t *testing.T) {
	s := newTestStore(t)
	if err := s.reg.CreateLargeType(adt.LargeType{Name: "clip", Kind: adt.KindVSegment, Codec: compress.Fast{}, SM: storage.Mem}); err != nil {
		t.Fatal(err)
	}
	tx := s.mgr().Begin()
	ss := s.NewSession(tx)
	ref, obj, err := ss.CreateTemp("clip")
	if err != nil {
		t.Fatal(err)
	}
	obj.Write(bytes.Repeat([]byte("v"), 5000))
	if err := ss.Keep(ref); err != nil {
		t.Fatal(err)
	}
	ss.Close()
	tx.Commit()

	// GCOrphanTemps must not collect the kept object or its byte store.
	n, err := s.GCOrphanTemps()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("GC collected %d kept objects", n)
	}
	tx2 := s.mgr().Begin()
	defer tx2.Abort()
	obj2, err := s.Open(tx2, ref)
	if err != nil {
		t.Fatal(err)
	}
	defer obj2.Close()
	data, err := io.ReadAll(obj2)
	if err != nil || len(data) != 5000 {
		t.Fatalf("kept vsegment read: %d bytes, %v", len(data), err)
	}
}

func TestGCOrphanTemps(t *testing.T) {
	s := newTestStore(t)
	tx := s.mgr().Begin()
	// Simulate a crashed session: temps created, session never closed.
	if _, _, err := s.Create(tx, CreateOptions{Kind: adt.KindFChunk, Temp: true}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Create(tx, CreateOptions{Kind: adt.KindVSegment, Temp: true}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	n, err := s.GCOrphanTemps()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("collected %d, want 2 (vsegment + fchunk; byte store via owner)", n)
	}
	if got := len(s.cat.Objects(false)); got != 0 {
		t.Fatalf("%d objects remain", got)
	}
}

func TestQuickRandomIOAgainstModel(t *testing.T) {
	// Drive each transactional implementation with random seek/read/write/
	// truncate against an in-memory byte-slice model.
	for _, kind := range []adt.StorageKind{adt.KindFChunk, adt.KindVSegment} {
		for _, codec := range []string{"", "fast"} {
			kind, codec := kind, codec
			t.Run(fmt.Sprintf("%v-%s", kind, codec), func(t *testing.T) {
				s := newTestStore(t)
				tx := s.mgr().Begin()
				_, obj, err := s.Create(tx, CreateOptions{Kind: kind, Codec: codec})
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(99))
				var model []byte
				for op := 0; op < 250; op++ {
					switch rng.Intn(5) {
					case 0, 1: // write at random offset
						off := 0
						if len(model) > 0 {
							off = rng.Intn(len(model) + 1)
						}
						n := 1 + rng.Intn(9000)
						data := make([]byte, n)
						rng.Read(data)
						if _, err := obj.Seek(int64(off), io.SeekStart); err != nil {
							t.Fatal(err)
						}
						if _, err := obj.Write(data); err != nil {
							t.Fatalf("op %d write: %v", op, err)
						}
						for len(model) < off+n {
							model = append(model, 0)
						}
						copy(model[off:], data)
					case 2, 3: // read random range
						if len(model) == 0 {
							continue
						}
						off := rng.Intn(len(model))
						n := 1 + rng.Intn(len(model)-off)
						if _, err := obj.Seek(int64(off), io.SeekStart); err != nil {
							t.Fatal(err)
						}
						got := make([]byte, n)
						if _, err := io.ReadFull(obj, got); err != nil {
							t.Fatalf("op %d read at %d+%d (size %d): %v", op, off, n, len(model), err)
						}
						if !bytes.Equal(got, model[off:off+n]) {
							t.Fatalf("op %d read mismatch at %d+%d", op, off, n)
						}
					case 4: // truncate
						n := 0
						if len(model) > 0 {
							n = rng.Intn(len(model) + 1)
						}
						if err := obj.Truncate(int64(n)); err != nil {
							t.Fatalf("op %d truncate: %v", op, err)
						}
						model = model[:n]
					}
					if sz, _ := obj.Size(); sz != int64(len(model)) {
						t.Fatalf("op %d size = %d, model %d", op, sz, len(model))
					}
				}
				obj.Close()
				tx.Commit()
			})
		}
	}
}

func TestFootprintFileKinds(t *testing.T) {
	s := newTestStore(t)
	tx := s.mgr().Begin()
	ref, obj, err := s.Create(tx, CreateOptions{Kind: adt.KindPFile})
	if err != nil {
		t.Fatal(err)
	}
	obj.Write(make([]byte, 51200))
	obj.Close()
	tx.Commit()
	fp, err := s.Footprint(ref)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Figure 1: native files show exactly the object size, no overhead.
	if fp.Data != 51200 || fp.Index != 0 || fp.Map != 0 {
		t.Fatalf("footprint = %+v", fp)
	}
}

func TestClosedHandleErrors(t *testing.T) {
	s := newTestStore(t)
	tx := s.mgr().Begin()
	_, obj, err := s.Create(tx, CreateOptions{Kind: adt.KindFChunk})
	if err != nil {
		t.Fatal(err)
	}
	obj.Close()
	if _, err := obj.Read(make([]byte, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("read: %v", err)
	}
	if _, err := obj.Write([]byte{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("write: %v", err)
	}
	if _, err := obj.Seek(0, io.SeekStart); !errors.Is(err, ErrClosed) {
		t.Fatalf("seek: %v", err)
	}
	if err := obj.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestNegativeSeek(t *testing.T) {
	s := newTestStore(t)
	tx := s.mgr().Begin()
	_, obj, err := s.Create(tx, CreateOptions{Kind: adt.KindFChunk})
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()
	if _, err := obj.Seek(-1, io.SeekStart); !errors.Is(err, ErrBadSeek) {
		t.Fatalf("err = %v", err)
	}
	if _, err := obj.Seek(0, 99); err == nil {
		t.Fatal("bad whence accepted")
	}
}
