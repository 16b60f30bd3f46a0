package core

// Tests of the f-chunk read path: one index descent per run of sequential
// chunks and one leaf walk per read (the handle's btree.Cursor), one copy
// from the pinned heap page into the caller's buffer, and a one-chunk cache
// only for partial spans and the handle's own unflushed writes.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"testing"

	"postlob/internal/adt"
	"postlob/internal/btree"
	"postlob/internal/catalog"
	"postlob/internal/compress"
	"postlob/internal/txn"
)

// createFChunk commits a new f-chunk object holding data.
func createFChunk(t testing.TB, s *Store, codec string, data []byte) adt.ObjectRef {
	t.Helper()
	tx := s.mgr().Begin()
	ref, obj, err := s.Create(tx, CreateOptions{Kind: adt.KindFChunk, Codec: codec})
	if err != nil {
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
	return ref
}

func readAt(t *testing.T, obj Object, off int64, n int) []byte {
	t.Helper()
	if _, err := obj.Seek(off, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, n)
	if _, err := io.ReadFull(obj, got); err != nil {
		t.Fatalf("read %d+%d: %v", off, n, err)
	}
	return got
}

// TestFChunkReadAfterOwnWrite drives one handle through whole-chunk,
// partial and sparse writes and reads every span back before and after the
// commit, so reads hit the direct page-to-caller path, the one-chunk cache
// holding unflushed bytes, and index entries the handle itself just added.
// Every read must also keep the read_bytes = chunk_read_bytes law.
func TestFChunkReadAfterOwnWrite(t *testing.T) {
	s := newTestStore(t)
	cs := s.chunkSize
	before := fchunkMetrics.readBytes.Load() - fchunkChunkReadBytes.Load()

	tx := s.mgr().Begin()
	ref, obj, err := s.Create(tx, CreateOptions{Kind: adt.KindFChunk})
	if err != nil {
		t.Fatal(err)
	}
	var model []byte
	write := func(off int, data []byte) {
		t.Helper()
		if _, err := obj.Seek(int64(off), io.SeekStart); err != nil {
			t.Fatal(err)
		}
		if _, err := obj.Write(data); err != nil {
			t.Fatal(err)
		}
		for len(model) < off+len(data) {
			model = append(model, 0)
		}
		copy(model[off:], data)
	}
	check := func(step string, obj Object) {
		t.Helper()
		spans := [][2]int{{0, len(model)}, {cs, cs}, {cs - 7, 14}, {3 * cs, len(model) - 3*cs}, {2*cs + 1, cs - 1}}
		for _, sp := range spans {
			if got := readAt(t, obj, int64(sp[0]), sp[1]); !bytes.Equal(got, model[sp[0]:sp[0]+sp[1]]) {
				t.Fatalf("%s: read %d+%d differs from what was written", step, sp[0], sp[1])
			}
		}
	}

	write(0, compress.GenFrame(1, 3*cs, 0))
	check("three whole chunks", obj)
	write(5*cs, compress.GenFrame(2, cs+cs/2, 0)) // chunks 3 and 4 stay sparse
	check("sparse gap", obj)
	write(cs, compress.GenFrame(3, cs, 0)) // supersede chunk 1 in this transaction
	write(cs/2, compress.GenFrame(4, 100, 0))
	check("own overwrites", obj)
	if err := obj.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	rtx := s.mgr().Begin()
	defer rtx.Abort()
	robj, err := s.Open(rtx, ref)
	if err != nil {
		t.Fatal(err)
	}
	defer robj.Close()
	check("after commit", robj)

	if after := fchunkMetrics.readBytes.Load() - fchunkChunkReadBytes.Load(); after != before {
		t.Fatalf("read_bytes - chunk_read_bytes moved from %d to %d", before, after)
	}
}

// TestReadSeesChunkItFlushed: a Read over chunks k-1..k+1 that begins
// inside chunk k-1 loads that chunk into the one-chunk cache, which flushes
// the handle's dirty chunk k as a new version first; the same Read then
// visits chunk k. A read that took its index entries before the flush would
// find only the version the flush superseded, which the handle's own
// transaction no longer sees, and return chunk k as zeros. The run is
// dropped by every store, so chunk k reads back as just written, whichever
// chunk the Read starts or ends in.
func TestReadSeesChunkItFlushed(t *testing.T) {
	s := newTestStore(t)
	cs := s.chunkSize
	const k = 3
	data := compress.GenFrame(7, 6*cs, 0)
	ref := createFChunk(t, s, "", data)
	for _, sp := range [][2]int{
		{(k-1)*cs + 100, 2*cs + 100}, // partial k-1, whole k, partial k+1
		{(k - 1) * cs, 2*cs + 100},   // whole k-1, cached k, partial k+1
		{(k-1)*cs + 100, 3*cs - 100}, // partial k-1, whole k and k+1
	} {
		tx := s.mgr().Begin()
		obj, err := s.Open(tx, ref)
		if err != nil {
			t.Fatal(err)
		}
		want := bytes.Clone(data)
		patch := compress.GenFrame(8, 50, 0)
		copy(want[k*cs+10:], patch)
		if _, err := obj.Seek(int64(k*cs+10), io.SeekStart); err != nil {
			t.Fatal(err)
		}
		if _, err := obj.Write(patch); err != nil {
			t.Fatal(err)
		}
		if got := readAt(t, obj, int64(sp[0]), sp[1]); !bytes.Equal(got, want[sp[0]:sp[0]+sp[1]]) {
			t.Fatalf("read %d+%d after writing into chunk %d differs from what was written", sp[0], sp[1], k)
		}
		if got := readAt(t, obj, 0, len(want)); !bytes.Equal(got, want) {
			t.Fatalf("whole read after the %d+%d read differs from what was written", sp[0], sp[1])
		}
		if err := obj.Close(); err != nil {
			t.Fatal(err)
		}
		tx.Abort()
	}
}

// TestFChunkReadKeepHistory reads an object whose chunks carry more index
// duplicates than the cursor's fixed array holds — every generation of
// every chunk stays in the heap and the index — live and as of each
// generation's commit.
func TestFChunkReadKeepHistory(t *testing.T) {
	s := newTestStore(t)
	cs := s.chunkSize
	const gens = 2 * 8 // twice the cursor's fixed duplicate array
	size := 3*cs + cs/3
	data := make([][]byte, gens)
	stamps := make([]txn.TS, gens)
	data[0] = compress.GenFrame(0, size, 0)
	ref := createFChunk(t, s, "", data[0])
	stamps[0] = s.mgr().Now()
	for g := 1; g < gens; g++ {
		data[g] = compress.GenFrame(int64(g), size, 0)
		writeAll(t, s, ref, data[g])
		stamps[g] = s.mgr().Now()
	}
	rtx := s.mgr().Begin()
	defer rtx.Abort()
	if got := readAll(t, s, rtx, ref); !bytes.Equal(got, data[gens-1]) {
		t.Fatal("live read differs from the last generation")
	}
	for g, ts := range stamps {
		obj, err := s.OpenAsOf(ts, ref)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(obj)
		obj.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[g]) {
			t.Fatalf("read as of generation %d differs", g)
		}
	}
}

// TestFChunkReadPrunesRecycledSlots: a sequential read reaches, through the
// cursor, index entries whose heap slots vacuum reclaimed and the next
// generation recycled for other chunks, prunes them mid-scan, and still
// returns the visible bytes. Each prune changes the tree under the cursor,
// which must then descend again rather than trust its saved leaf.
func TestFChunkReadPrunesRecycledSlots(t *testing.T) {
	s := newTestStore(t)
	cs := s.chunkSize
	const chunks = 6
	ref := createFChunk(t, s, "", bytes.Repeat([]byte{1}, chunks*cs))
	writeAll(t, s, ref, bytes.Repeat([]byte{2}, chunks*cs))
	if n, err := s.Vacuum(false); err != nil || n < chunks {
		t.Fatalf("vacuum reclaimed %d versions (%v), want the %d of generation 1", n, err, chunks)
	}
	// Generation 3 refills generation 1's blocks, last freed first, so the
	// stale entry of chunk k now names the slot holding chunk 5-k. For the
	// upper chunks that slot sorts above the visible version, where a read
	// probing newest-first meets it before the version it wants.
	gen3 := bytes.Repeat([]byte{3}, chunks*cs)
	writeAll(t, s, ref, gen3)

	meta, err := s.cat.Object(catalog.OID(ref.OID))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := btree.Open(s.pool.Buf, meta.SM, meta.IdxRel, s.btreeConfig())
	if err != nil {
		t.Fatal(err)
	}
	var entries [3]uint64
	for round := range entries {
		if round > 0 {
			rtx := s.mgr().Begin()
			got := readAll(t, s, rtx, ref)
			rtx.Abort()
			if !bytes.Equal(got, gen3) {
				t.Fatalf("read %d returned the wrong bytes", round)
			}
		}
		n, err := idx.Len()
		if err != nil {
			t.Fatal(err)
		}
		entries[round] = n
	}
	if entries[1] >= entries[0] || entries[2] != entries[1] {
		t.Fatalf("index entries before and after two reads: %v; want the first read to prune and the second to find nothing left", entries)
	}
}

// TestFChunkReadRawMatchesRead: the stored extents VisitRaw and
// VisitRawAsOf show, decoded over zeros, are byte-identical to Read for
// every codec and for v-segment objects, over whole, partial, sparse and
// end-of-object spans; they arrive in ascending logical order; and an
// error from the visitor stops the visit and comes back unchanged.
func TestFChunkReadRawMatchesRead(t *testing.T) {
	for _, tc := range []struct {
		name  string
		kind  adt.StorageKind
		codec string
	}{
		{"codec=", adt.KindFChunk, ""},
		{"codec=fast", adt.KindFChunk, "fast"},
		{"codec=tight", adt.KindFChunk, "tight"},
		{"vsegment", adt.KindVSegment, "fast"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestStore(t)
			cs := s.chunkSize
			tx := s.mgr().Begin()
			ref, obj, err := s.Create(tx, CreateOptions{Kind: tc.kind, Codec: tc.codec})
			if err != nil {
				t.Fatal(err)
			}
			write := func(off int, data []byte) {
				t.Helper()
				if _, err := obj.Seek(int64(off), io.SeekStart); err != nil {
					t.Fatal(err)
				}
				// Frame-sized writes leave a v-segment object many segments.
				for len(data) > 0 {
					n, err := obj.Write(data[:min(len(data), 4096)])
					if err != nil {
						t.Fatal(err)
					}
					data = data[n:]
				}
			}
			write(0, compress.GenFrame(7, 2*cs, 0.5))
			write(4*cs, compress.GenFrame(8, cs+cs/2, 0.5)) // chunks 2, 3 sparse
			write(cs/2, compress.GenFrame(9, 3000, 0.5))    // trims v-segment records
			if err := obj.Close(); err != nil {
				t.Fatal(err)
			}
			ts, err := tx.Commit()
			if err != nil {
				t.Fatal(err)
			}
			size := int64(5*cs + cs/2)
			rtx := s.mgr().Begin()
			defer rtx.Abort()
			robj, err := s.Open(rtx, ref)
			if err != nil {
				t.Fatal(err)
			}
			defer robj.Close()
			assemble := func(off, n int64, visit func(off, n int64, fn func(*RawExtent) error) error) []byte {
				t.Helper()
				got := make([]byte, n)
				next := off
				err := visit(off, n, func(e *RawExtent) error {
					if e.LogStart < next {
						return fmt.Errorf("extent at %d arrived after %d", e.LogStart, next)
					}
					next = e.LogStart + int64(e.Take)
					decoded, err := compress.Decode(e.Encoded)
					if err != nil {
						return err
					}
					copy(got[e.LogStart-off:], decoded[e.Skip:e.Skip+e.Take])
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				return got
			}
			live := func(off, n int64, fn func(*RawExtent) error) error { return s.VisitRaw(rtx, ref, off, n, fn) }
			asOf := func(off, n int64, fn func(*RawExtent) error) error { return s.VisitRawAsOf(ts, ref, off, n, fn) }
			for _, sp := range [][2]int64{{0, size}, {100, int64(cs)}, {int64(cs) - 1, 2}, {int64(2*cs) + 5, int64(2 * cs)}, {size - 9, 9}} {
				want := readAt(t, robj, sp[0], int(sp[1]))
				if got := assemble(sp[0], sp[1], live); !bytes.Equal(got, want) {
					t.Fatalf("VisitRaw %d+%d differs from Read", sp[0], sp[1])
				}
				if got := assemble(sp[0], sp[1], asOf); !bytes.Equal(got, want) {
					t.Fatalf("VisitRawAsOf %d+%d differs from Read", sp[0], sp[1])
				}
			}

			stop := errors.New("stop")
			calls := 0
			err = s.VisitRaw(rtx, ref, 0, size, func(*RawExtent) error {
				calls++
				return stop
			})
			if !errors.Is(err, stop) || calls != 1 {
				t.Fatalf("visitor error: got %v after %d calls, want it back after 1", err, calls)
			}
		})
	}
}

// TestFileVisitRawMatchesRead: VisitRaw over a u-file or p-file shows the
// range as one raw envelope that decodes to the file's bytes, at any
// offset and length (clipped at the end, nothing past it), read through
// the kind's lob counters; VisitRawAsOf refuses with ErrNoTravel.
func TestFileVisitRawMatchesRead(t *testing.T) {
	for _, kind := range []adt.StorageKind{adt.KindUFile, adt.KindPFile} {
		t.Run(kind.String(), func(t *testing.T) {
			s := newTestStore(t)
			opts := CreateOptions{Kind: kind}
			if kind == adt.KindUFile {
				opts.Path = filepath.Join(t.TempDir(), "blob.bin")
			}
			payload := compress.GenFrame(11, 30_000, 0.5)
			tx := s.mgr().Begin()
			ref, obj, err := s.Create(tx, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := obj.Write(payload); err != nil {
				t.Fatal(err)
			}
			if err := obj.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			size := int64(len(payload))
			readBytes := lobMetricsFor(kind).readBytes
			for _, sp := range [][2]int64{{0, size}, {1, 1}, {4097, 9000}, {size - 10, 100}, {size, 10}, {size + 5, 10}} {
				off, n := sp[0], sp[1]
				want := payload[min(off, size):min(off+n, size)]
				before := readBytes.Load()
				var got []byte
				calls := 0
				err := s.VisitRaw(nil, ref, off, n, func(e *RawExtent) error {
					calls++
					if e.LogStart != off || e.Skip != 0 {
						return fmt.Errorf("extent at %d skip %d, want %d skip 0", e.LogStart, e.Skip, off)
					}
					decoded, err := compress.Decode(e.Encoded)
					if err != nil {
						return err
					}
					got = decoded[:e.Take]
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if calls > 1 || !bytes.Equal(got, want) {
					t.Fatalf("VisitRaw %d+%d: %d calls, %d bytes; want one extent of the file's %d", off, n, calls, len(got), len(want))
				}
				if read := readBytes.Load() - before; read != int64(len(want)) {
					t.Fatalf("VisitRaw %d+%d counted %d bytes read, want %d", off, n, read, len(want))
				}
			}
			err = s.VisitRawAsOf(s.mgr().Now(), ref, 0, size, func(*RawExtent) error { return nil })
			if !errors.Is(err, ErrNoTravel) {
				t.Fatalf("VisitRawAsOf of a %v: %v, want ErrNoTravel", kind, err)
			}
		})
	}
}

// TestFChunkReadAllocs pins the read path's allocations: none for a whole
// object read of a pool-resident, codec-less object on an open handle, and
// at most one per chunk with the fast codec. The benchmark's scan_hot op —
// begin, open, read the whole object, close, commit — allocates at most
// opAllocs times with either codec: the transaction and the handle, never
// the read, whose index run and buffers the handle borrows from a pool.
func TestFChunkReadAllocs(t *testing.T) {
	const opAllocs = 4
	for _, tc := range []struct {
		codec string
		max   float64 // allocations per chunk
	}{{"", 0}, {"fast", 1}} {
		t.Run("codec="+tc.codec, func(t *testing.T) {
			s := newTestStore(t)
			const chunks = 40
			data := compress.GenFrame(3, chunks*s.chunkSize+s.chunkSize/2, 0.5)
			ref := createFChunk(t, s, tc.codec, data)
			tx := s.mgr().Begin()
			defer tx.Abort()
			obj, err := s.Open(tx, ref)
			if err != nil {
				t.Fatal(err)
			}
			defer obj.Close()
			buf := make([]byte, len(data))
			read := func() {
				if _, err := obj.Seek(0, io.SeekStart); err != nil {
					t.Fatal(err)
				}
				if _, err := io.ReadFull(obj, buf); err != nil {
					t.Fatal(err)
				}
			}
			read()
			if got := testing.AllocsPerRun(20, read); got > tc.max*(chunks+1) {
				t.Errorf("whole-object read allocates %v times over %d chunks", got, chunks+1)
			}
			if !bytes.Equal(buf, data) {
				t.Fatal("read returned the wrong bytes")
			}
			// With no other transaction open, as in the benchmark: a
			// snapshot taken beside one allocates its list.
			if err := obj.Close(); err != nil {
				t.Fatal(err)
			}
			tx.Abort()

			op := func() {
				tx := s.mgr().Begin()
				obj, err := s.Open(tx, ref)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := io.ReadFull(obj, buf); err != nil {
					t.Fatal(err)
				}
				if err := obj.Close(); err != nil {
					t.Fatal(err)
				}
				if _, err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			op()
			if got := testing.AllocsPerRun(20, op); got > opAllocs {
				t.Errorf("begin, open, read %d chunks, close, commit allocates %v times, want at most %d", chunks+1, got, opAllocs)
			}
		})
	}
}

// BenchmarkFChunkRead is the benchmark's scan_hot op in miniature: begin,
// open, read a pool-resident 1 MiB object in one call, close, commit.
func BenchmarkFChunkRead(b *testing.B) {
	for _, codec := range []string{"", "fast"} {
		b.Run(fmt.Sprintf("codec=%s", codec), func(b *testing.B) {
			s := newTestStore(b)
			data := compress.GenFrame(1, 1<<20, 0.5)
			ref := createFChunk(b, s, codec, data)
			buf := make([]byte, len(data))
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := s.mgr().Begin()
				obj, err := s.Open(tx, ref)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := io.ReadFull(obj, buf); err != nil {
					b.Fatal(err)
				}
				if err := obj.Close(); err != nil {
					b.Fatal(err)
				}
				if _, err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
