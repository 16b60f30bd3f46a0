package core

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"postlob/internal/adt"
	"postlob/internal/buffer"
	"postlob/internal/catalog"
	"postlob/internal/compress"
	"postlob/internal/heap"
	"postlob/internal/obs"
	"postlob/internal/storage"
	"postlob/internal/wal"
)

// An overwrite that covers whole chunks supersedes them without reading
// them: no chunk is fetched into the cache, and a sequential Write never
// arms the scan prefetcher, whose windows would follow versions that live in
// recycled, scattered blocks. The partial chunks at the edges are still
// read, and a sequential Read of an object the pool does not hold still
// reads ahead.
func TestFChunkOverwriteNeitherLoadsNorPrefetches(t *testing.T) {
	s := newTestStore(t)
	s.pool.Buf.StartEngine(buffer.EngineConfig{Manual: true})
	defer s.pool.Buf.StopEngine()
	const chunks = 12
	chunk := int(DefaultChunkSize)

	tx := s.mgr().Begin()
	ref, obj, err := s.Create(tx, CreateOptions{Kind: adt.KindFChunk})
	if err != nil {
		t.Fatal(err)
	}
	want := compress.GenFrame(3, chunks*chunk, 0)
	if _, err := obj.Write(want); err != nil {
		t.Fatal(err)
	}
	if err := obj.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	overwrite := func(off int64, data []byte) (loads, posted int64) {
		t.Helper()
		tx := s.mgr().Begin()
		obj, err := s.Open(tx, ref)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := obj.Seek(off, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		before := obs.Snapshot()
		if n, err := obj.Write(data); err != nil || n != len(data) {
			t.Fatalf("write = %d, %v", n, err)
		}
		if err := obj.Close(); err != nil {
			t.Fatal(err)
		}
		after := obs.Snapshot()
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		copy(want[off:], data)
		return after.CounterDelta(before, "lob.fchunk.chunk_loads"), after.CounterDelta(before, "buffer.prefetch.posted")
	}

	// Chunk-aligned: chunks 2..7, whole.
	loads, posted := overwrite(int64(2*chunk), compress.GenFrame(4, 6*chunk, 0))
	if loads != 0 || posted != 0 {
		t.Errorf("aligned overwrite of 6 chunks: %d chunk loads, %d prefetch windows posted; want none", loads, posted)
	}
	// Unaligned: the tail of chunk 3, chunks 4..8 whole, the head of chunk 9.
	loads, posted = overwrite(int64(3*chunk+100), compress.GenFrame(5, 6*chunk, 0))
	if loads != 2 || posted != 0 {
		t.Errorf("unaligned overwrite: %d chunk loads, %d prefetch windows posted; want the 2 edge chunks and no window", loads, posted)
	}

	// Read-ahead posts only windows the pool lacks: start cold.
	if err := s.EvictFromPool(ref); err != nil {
		t.Fatal(err)
	}
	rtx := s.mgr().Begin()
	defer rtx.Abort()
	robj, err := s.Open(rtx, ref)
	if err != nil {
		t.Fatal(err)
	}
	defer robj.Close()
	before := obs.Snapshot()
	got, err := io.ReadAll(robj)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("object differs from the model after whole-chunk overwrites")
	}
	if obs.Snapshot().CounterDelta(before, "buffer.prefetch.posted") == 0 {
		t.Error("a sequential Read of 12 chunks posted no prefetch window")
	}
}

// In the steady state — the heap refilling space vacuum reclaimed instead of
// growing — overwriting whole chunks allocates nothing, with or without a
// codec: each chunk is encoded into the handle's reused buffer and its tuple
// is built on the page.
func TestFChunkOverwriteAllocs(t *testing.T) {
	for _, codec := range []string{"", "fast"} {
		t.Run("codec="+codec, func(t *testing.T) {
			s := newTestStore(t)
			const chunks, runs = 8, 20
			data := compress.GenFrame(4, chunks*int(DefaultChunkSize), 0.5)
			ref := createFChunk(t, s, codec, data)
			overwrite := func(obj Object) {
				if _, err := obj.Seek(0, io.SeekStart); err != nil {
					t.Fatal(err)
				}
				if _, err := obj.Write(data); err != nil {
					t.Fatal(err)
				}
			}
			// Supersede the object more often than the measured transaction
			// will, then vacuum every version but the last.
			tx := s.mgr().Begin()
			obj, err := s.Open(tx, ref)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < runs+4; i++ {
				overwrite(obj)
			}
			if err := obj.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			meta, err := s.cat.Object(catalog.OID(ref.OID))
			if err != nil {
				t.Fatal(err)
			}
			rel, err := heap.Open(s.pool, meta.SM, meta.DataRel)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rel.Vacuum(false); err != nil {
				t.Fatal(err)
			}

			tx = s.mgr().Begin()
			defer tx.Abort()
			if obj, err = s.Open(tx, ref); err != nil {
				t.Fatal(err)
			}
			defer obj.Close()
			overwrite(obj)
			if got := testing.AllocsPerRun(runs, func() { overwrite(obj) }); got != 0 {
				t.Errorf("overwriting %d whole chunks allocates %v times", chunks, got)
			}
		})
	}
}

// Under WAL durability a chunk version's page is modified three times: by
// the insert, by the xmax stamp of the overwrite that supersedes it, and by
// vacuum's reclaim. With a writer round after every op, the way the clock
// tick runs it under load, those modifications should mostly reach the
// device together: a round writes only the cold end of the LRU lists, so a
// page still being worked on waits for the checkpoint. Before rounds were
// confined to the cold end this measured 3.125 write-backs per version; now
// it is 1.141.
func TestFChunkOverwriteWritesEachVersionBackAboutOnce(t *testing.T) {
	const (
		objects, slots, opChunks = 8, 8, 16
		ops, checkpointEvery     = 128, 64
		maxPerVersion            = 1.5
	)
	chunk := int(DefaultChunkSize)
	s := newSizedTestStore(t, 2048)
	disk, err := storage.NewDiskManager(t.TempDir(), storage.DeviceModel{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	wlog, err := wal.Open(disk, wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer wlog.Close()
	AttachWAL(s.pool, wlog)
	s.pool.Buf.StartEngine(buffer.EngineConfig{Manual: true})
	defer s.pool.Buf.StopEngine()
	sm := storage.Disk
	refs := make([]adt.ObjectRef, objects)
	for i := range refs {
		tx := s.mgr().Begin()
		ref, obj, err := s.Create(tx, CreateOptions{Kind: adt.KindFChunk, SM: &sm})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := obj.Write(compress.GenFrame(int64(i), slots*opChunks*chunk, 0)); err != nil {
			t.Fatal(err)
		}
		if err := obj.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}
	data := compress.GenFrame(99, opChunks*chunk, 0)
	// The first half warms up: every object superseded and vacuumed, the
	// log and the heap at their steady size.
	var before obs.Snap
	for i := 0; i < 2*ops; i++ {
		if i == ops {
			before = obs.Snapshot()
		}
		tx := s.mgr().Begin()
		obj, err := s.Open(tx, refs[i*7%objects])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := obj.Seek(int64(i*5%slots*opChunks*chunk), io.SeekStart); err != nil {
			t.Fatal(err)
		}
		if _, err := obj.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := obj.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.pool.Buf.BgWriterRound(0); err != nil {
			t.Fatal(err)
		}
		if i%checkpointEvery == checkpointEvery-1 {
			if _, err := s.Vacuum(false); err != nil {
				t.Fatal(err)
			}
			if err := Checkpoint(s.pool, wlog); err != nil {
				t.Fatal(err)
			}
		}
	}
	writebacks := obs.Snapshot().CounterDelta(before, "pool.writebacks")
	if got := float64(writebacks) / (ops * opChunks); got > maxPerVersion {
		t.Errorf("%d write-backs for %d chunk versions: %.3f per version, want at most %.1f", writebacks, ops*opChunks, got, maxPerVersion)
	}
}

// BenchmarkFChunkOverwrite is the benchmark's replace_wal op in miniature,
// under WAL durability on the disk manager: begin, open, seek to an aligned
// 128 KiB slot of a 1 MiB object, write it, close, commit. Every 64 ops it
// vacuums and checkpoints, as the workload's autovacuum and client
// checkpoints do, so the heap and the log stay bounded. Besides time and
// allocations it reports the pages written back per op.
func BenchmarkFChunkOverwrite(b *testing.B) {
	const op, slots = 128 << 10, 8
	for _, codec := range []string{"", "fast"} {
		b.Run(fmt.Sprintf("codec=%s", codec), func(b *testing.B) {
			s := newTestStore(b)
			disk, err := storage.NewDiskManager(b.TempDir(), storage.DeviceModel{}, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer disk.Close()
			wlog, err := wal.Open(disk, wal.Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer wlog.Close()
			AttachWAL(s.pool, wlog)
			sm := storage.Disk
			tx := s.mgr().Begin()
			ref, obj, err := s.Create(tx, CreateOptions{Kind: adt.KindFChunk, Codec: codec, SM: &sm})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := obj.Write(compress.GenFrame(1, slots*op, 0.5)); err != nil {
				b.Fatal(err)
			}
			if err := obj.Close(); err != nil {
				b.Fatal(err)
			}
			if _, err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
			data := compress.GenFrame(2, op, 0.5)
			b.SetBytes(op)
			b.ReportAllocs()
			before := obs.Snapshot()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := s.mgr().Begin()
				obj, err := s.Open(tx, ref)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := obj.Seek(int64(i%slots)*op, io.SeekStart); err != nil {
					b.Fatal(err)
				}
				if _, err := obj.Write(data); err != nil {
					b.Fatal(err)
				}
				if err := obj.Close(); err != nil {
					b.Fatal(err)
				}
				if _, err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
				if i%64 == 63 {
					if _, err := s.Vacuum(false); err != nil {
						b.Fatal(err)
					}
					if err := Checkpoint(s.pool, wlog); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			writebacks := obs.Snapshot().CounterDelta(before, "pool.writebacks")
			b.ReportMetric(float64(writebacks)/float64(b.N), "writebacks/op")
		})
	}
}
