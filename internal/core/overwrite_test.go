package core

import (
	"bytes"
	"io"
	"testing"

	"postlob/internal/adt"
	"postlob/internal/buffer"
	"postlob/internal/compress"
	"postlob/internal/obs"
)

// An overwrite that covers whole chunks supersedes them without reading
// them: no chunk is fetched into the cache, and a sequential Write never
// arms the scan prefetcher, whose windows would follow versions that live in
// recycled, scattered blocks. The partial chunks at the edges are still
// read, and a sequential Read still reads ahead.
func TestFChunkOverwriteNeitherLoadsNorPrefetches(t *testing.T) {
	s := newTestStore(t)
	s.pool.Buf.StartEngine(buffer.EngineConfig{Prefetch: true, Manual: true})
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
