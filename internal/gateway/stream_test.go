package gateway_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"postlob/internal/adt"
	"postlob/internal/buffer"
	"postlob/internal/catalog"
	"postlob/internal/client"
	"postlob/internal/compress"
	"postlob/internal/core"
	"postlob/internal/gateway"
	"postlob/internal/heap"
	"postlob/internal/inversion"
	"postlob/internal/storage"
	"postlob/internal/txn"
)

// startGateway brings up a v2 stream listener over a fresh in-memory store.
func startGateway(t *testing.T, opts gateway.Options) (string, *core.Store, *gateway.Gateway) {
	t.Helper()
	dir := t.TempDir()
	sw := storage.NewSwitch()
	sw.Register(storage.Mem, storage.NewMemManager(storage.DeviceModel{}, nil))
	pool := &heap.Pool{Buf: buffer.NewPool(256, sw, nil), Mgr: txn.NewManager()}
	store := core.NewStore(pool, catalog.NewMemory(), adt.NewRegistry(), core.Config{
		FilesDir:  filepath.Join(dir, "pfiles"),
		DefaultSM: storage.Mem,
	})
	opts.FS = inversion.Options{SM: storage.Mem}
	g := gateway.New(store, opts)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go g.ServeStream(l)
	t.Cleanup(func() { g.Close() })
	return l.Addr().String(), store, g
}

func dialStream(t *testing.T, addr string) *client.Stream {
	t.Helper()
	s, err := client.DialStream(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// loadObject creates and commits a large object directly in the store.
func loadObject(t *testing.T, store *core.Store, kind adt.StorageKind, codec string, payload []byte) adt.ObjectRef {
	t.Helper()
	tx := store.Pool().Mgr.Begin()
	ref, obj, err := store.Create(tx, core.CreateOptions{Kind: kind, Codec: codec})
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
	return ref
}

func TestStreamQueryRoundTrip(t *testing.T) {
	addr, _, _ := startGateway(t, gateway.Options{})
	s := dialStream(t, addr)

	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`create EMP (name = text, age = int4)`,
		`append EMP (name = "Joe", age = 29)`,
		`append EMP (name = "Sam", age = 41)`,
	} {
		if _, err := s.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec(`retrieve (EMP.name) where EMP.age > 30`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "Sam" {
		t.Fatalf("rows = %v", res.Rows)
	}
	if err := s.Abort(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamReadWriteRoundTrip moves a multi-chunk object both directions
// through the chunked protocol and verifies every byte.
func TestStreamReadWriteRoundTrip(t *testing.T) {
	addr, store, _ := startGateway(t, gateway.Options{Chunk: 8 << 10, Window: 4})
	payload := compress.GenFrame(21, 300_000, 0.3)
	ref := loadObject(t, store, adt.KindFChunk, "fast", payload)

	s := dialStream(t, addr)
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	h, err := s.Open(ref)
	if err != nil {
		t.Fatal(err)
	}
	size, err := h.Size()
	if err != nil || size != int64(len(payload)) {
		t.Fatalf("size = %d, %v", size, err)
	}

	// Raw streaming read, client-side decode.
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(h, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("streamed raw read mismatch")
	}

	// ReadTo: chunk-at-a-time assembly into a writer.
	var sink bytes.Buffer
	if n, err := h.ReadTo(&sink, 0, -1); err != nil || n != int64(len(payload)) {
		t.Fatalf("ReadTo = %d, %v", n, err)
	}
	if !bytes.Equal(sink.Bytes(), payload) {
		t.Fatal("ReadTo mismatch")
	}

	// Range via ReadTo.
	sink.Reset()
	if _, err := h.ReadTo(&sink, 40_000, 5000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sink.Bytes(), payload[40_000:45_000]) {
		t.Fatal("ReadTo range mismatch")
	}

	// Server-side decode path.
	h.Seek(10_000, io.SeekStart)
	buf := make([]byte, 2048)
	if _, err := io.ReadFull(&serverSideReader{h}, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, payload[10_000:10_000+len(buf)]) {
		t.Fatal("server-side read mismatch")
	}

	// Streaming write: more than window*chunk bytes so credits must cycle.
	patch := compress.GenFrame(22, 100_000, 0.5)
	h.Seek(50_000, io.SeekStart)
	if n, err := h.Write(patch); err != nil || n != len(patch) {
		t.Fatalf("write = %d, %v", n, err)
	}
	copy(payload[50_000:], patch)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	// Verify the write locally.
	tx := store.Pool().Mgr.Begin()
	defer tx.Abort()
	obj, err := store.Open(tx, ref)
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()
	local := make([]byte, len(payload))
	obj.Seek(0, io.SeekStart)
	if _, err := io.ReadFull(obj, local); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(local, payload) {
		t.Fatal("streamed write lost bytes")
	}
}

// serverSideReader adapts ReadServerSide to io.Reader for io.ReadFull.
type serverSideReader struct{ o *client.StreamObject }

func (r *serverSideReader) Read(p []byte) (int, error) { return r.o.ReadServerSide(p) }

// TestStreamSparseRead reads an object with a hole: raw streaming must
// zero-fill the gap exactly like a local read.
func TestStreamSparseRead(t *testing.T) {
	addr, store, _ := startGateway(t, gateway.Options{Chunk: 8 << 10})
	tx := store.Pool().Mgr.Begin()
	ref, obj, err := store.Create(tx, core.CreateOptions{Kind: adt.KindFChunk, Codec: "fast"})
	if err != nil {
		t.Fatal(err)
	}
	head := []byte("head of the object")
	tail := []byte("tail far away")
	obj.Write(head)
	obj.Seek(100_000, io.SeekStart)
	obj.Write(tail)
	obj.Close()
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	want := make([]byte, 100_000+len(tail))
	copy(want, head)
	copy(want[100_000:], tail)

	s := dialStream(t, addr)
	s.Begin()
	h, err := s.Open(ref)
	if err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	if n, err := h.ReadTo(&sink, 0, -1); err != nil || n != int64(len(want)) {
		t.Fatalf("ReadTo = %d, %v", n, err)
	}
	if !bytes.Equal(sink.Bytes(), want) {
		t.Fatal("sparse stream mismatch")
	}
	h.Close()
	s.Abort()
}

// TestStreamAsOfPipelined runs many concurrent snapshot reads over ONE
// connection: as-of streams multiplex without a transaction, so goroutines
// pipeline freely and every interleaved chunk must land in the right
// stream.
func TestStreamAsOfPipelined(t *testing.T) {
	addr, store, _ := startGateway(t, gateway.Options{Chunk: 8 << 10, Window: 4})
	payloads := make(map[int][]byte)
	refs := make(map[int]adt.ObjectRef)
	for i := 0; i < 3; i++ {
		payloads[i] = compress.GenFrame(int64(30+i), 150_000, 0.4)
		refs[i] = loadObject(t, store, adt.KindFChunk, "fast", payloads[i])
	}
	ts := store.Pool().Mgr.Now()

	s := dialStream(t, addr)
	const readers = 8
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r) + 77))
			for round := 0; round < 6; round++ {
				i := (r + round) % 3
				h, err := s.OpenAsOf(ts, refs[i])
				if err != nil {
					errs <- fmt.Errorf("reader %d open: %w", r, err)
					return
				}
				off := rng.Intn(len(payloads[i]) - 20_000)
				n := 10_000 + rng.Intn(10_000)
				var sink bytes.Buffer
				if _, err := h.ReadTo(&sink, int64(off), int64(n)); err != nil {
					errs <- fmt.Errorf("reader %d ReadTo: %w", r, err)
					return
				}
				if !bytes.Equal(sink.Bytes(), payloads[i][off:off+n]) {
					errs <- fmt.Errorf("reader %d round %d: bytes at %d differ", r, round, off)
					return
				}
				if err := h.Close(); err != nil {
					errs <- fmt.Errorf("reader %d close: %w", r, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestStreamTimeTravel reads a superseded version through an as-of handle.
func TestStreamTimeTravel(t *testing.T) {
	addr, store, _ := startGateway(t, gateway.Options{})
	ref := loadObject(t, store, adt.KindFChunk, "", []byte("the original"))
	ts1 := store.Pool().Mgr.Now()

	tx := store.Pool().Mgr.Begin()
	obj, _ := store.Open(tx, ref)
	obj.Seek(4, io.SeekStart)
	obj.Write([]byte("REVISED!"))
	obj.Close()
	tx.Commit()

	s := dialStream(t, addr)
	h, err := s.OpenAsOf(ts1, ref)
	if err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	if _, err := h.ReadTo(&sink, 0, -1); err != nil {
		t.Fatal(err)
	}
	if sink.String() != "the original" {
		t.Fatalf("as-of read = %q", sink.String())
	}
	// The server-side decode path serves the same snapshot.
	buf := make([]byte, 64)
	n, err := h.ReadServerSide(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "the original" {
		t.Fatalf("as-of server-side read = %q", buf[:n])
	}
	h.Close()
}

// TestStreamNoRawFallback covers u-file objects: raw reads are refused with
// a clear error, ReadTo falls back to server-side decode transparently.
func TestStreamNoRawFallback(t *testing.T) {
	addr, store, _ := startGateway(t, gateway.Options{Chunk: 8 << 10})
	payload := compress.GenFrame(40, 60_000, 0.3)
	tx := store.Pool().Mgr.Begin()
	ref, obj, err := store.Create(tx, core.CreateOptions{
		Kind: adt.KindUFile, Path: filepath.Join(t.TempDir(), "blob.bin"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Write(payload); err != nil {
		t.Fatal(err)
	}
	obj.Close()
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	s := dialStream(t, addr)
	s.Begin()
	defer s.Abort()
	h, err := s.Open(ref)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	buf := make([]byte, 1024)
	if _, err := h.Read(buf); err == nil || !strings.Contains(err.Error(), "no raw form") {
		t.Fatalf("raw read of u-file: %v", err)
	}
	var sink bytes.Buffer
	if n, err := h.ReadTo(&sink, 0, -1); err != nil || n != int64(len(payload)) {
		t.Fatalf("ReadTo fallback = %d, %v", n, err)
	}
	if !bytes.Equal(sink.Bytes(), payload) {
		t.Fatal("fallback stream mismatch")
	}
}

func TestStreamErrorsAndTxnDiscipline(t *testing.T) {
	addr, _, _ := startGateway(t, gateway.Options{})
	s := dialStream(t, addr)

	if _, err := s.Exec(`retrieve (x = newfilename())`); err == nil || !strings.Contains(err.Error(), "no open transaction") {
		t.Fatalf("exec without txn: %v", err)
	}
	s.Begin()
	if err := s.Begin(); err == nil {
		t.Fatal("double begin accepted")
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err == nil {
		t.Fatal("double commit accepted")
	}
	s.Begin()
	if _, err := s.Exec(`frobnicate`); err == nil || !strings.Contains(err.Error(), "syntax") {
		t.Fatalf("syntax error not surfaced: %v", err)
	}
	s.Abort()

	// A read on a bogus handle fails the stream, not the connection.
	s.Begin()
	bogus := clientObjectWithHandle(s)
	buf := make([]byte, 16)
	if _, err := bogus.Read(buf); err == nil || !strings.Contains(err.Error(), "bad handle") {
		t.Fatalf("bogus handle read: %v", err)
	}
	// The connection is still usable.
	if _, err := s.Now(); err != nil {
		t.Fatalf("connection dead after stream error: %v", err)
	}
	s.Abort()
}

// clientObjectWithHandle opens a real handle then closes it, leaving a
// dangling id on the client side.
func clientObjectWithHandle(s *client.Stream) *client.StreamObject {
	res, _ := s.Exec(`retrieve (x = newfilename())`)
	_ = res
	// Any never-issued handle id works: the server allocates from 1.
	return client.DanglingStreamObject(s, 9999)
}

// TestStreamReadOnlyGateway drives the replica-mode refusals: begin/exec
// refused, snapshot reads served, streaming writes drained and refused.
func TestStreamReadOnlyGateway(t *testing.T) {
	addr, store, g := startGateway(t, gateway.Options{Chunk: 8 << 10})
	payload := compress.GenFrame(50, 120_000, 0.4)
	ref := loadObject(t, store, adt.KindFChunk, "fast", payload)
	ts := store.Pool().Mgr.Now()
	g.SetReadOnly()

	s := dialStream(t, addr)
	if err := s.Begin(); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("begin on replica: %v", err)
	}
	h, err := s.OpenAsOf(ts, ref)
	if err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	if n, err := h.ReadTo(&sink, 0, -1); err != nil || n != int64(len(payload)) {
		t.Fatalf("replica ReadTo = %d, %v", n, err)
	}
	if !bytes.Equal(sink.Bytes(), payload) {
		t.Fatal("replica stream mismatch")
	}
	// A streaming write is drained to FIN and refused in the response; the
	// connection survives.
	if _, err := h.Write(bytes.Repeat([]byte{1}, 50_000)); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("write on replica: %v", err)
	}
	if _, err := s.Now(); err != nil {
		t.Fatalf("connection dead after refused write: %v", err)
	}
	h.Close()
}

// TestStreamChunkBufferBound streams an object much larger than the chunk
// window and asserts the server's chunk-buffer high-water mark stayed
// O(chunk-window), not O(object).
func TestStreamChunkBufferBound(t *testing.T) {
	const chunk = 16 << 10
	addr, store, g := startGateway(t, gateway.Options{Chunk: chunk, Window: 4, Depth: 4})
	payload := compress.GenFrame(60, 4<<20, 0.0) // 4 MiB, incompressible
	ref := loadObject(t, store, adt.KindFChunk, "", payload)
	ts := store.Pool().Mgr.Now()

	g.ResetChunkBufferHWM()
	s := dialStream(t, addr)
	h, err := s.OpenAsOf(ts, ref)
	if err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	if n, err := h.ReadTo(&sink, 0, -1); err != nil || n != int64(len(payload)) {
		t.Fatalf("ReadTo = %d, %v", n, err)
	}
	if !bytes.Equal(sink.Bytes(), payload) {
		t.Fatal("stream mismatch")
	}
	h.Close()

	hwm := g.ChunkBufferHWM()
	// depth fetched + window in flight + slack, in chunks (extent encoding
	// adds per-extent headers on top of chunk payloads).
	bound := int64((4 + 4 + 4) * chunk * 2)
	if hwm <= 0 || hwm > bound {
		t.Fatalf("chunk-buffer HWM = %d, want (0, %d] for a %d-byte object", hwm, bound, len(payload))
	}
	t.Logf("streamed %d bytes with %d-byte server HWM", len(payload), hwm)
}

// TestDroppedConnectionAbortsTxn drops a connection mid-transaction: the
// gateway must abort the transaction, so its insert never becomes visible.
func TestDroppedConnectionAbortsTxn(t *testing.T) {
	addr, store, _ := startGateway(t, gateway.Options{})
	mgr := store.Pool().Mgr
	s, err := client.DialStream(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`create T (x = int4)`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`append T (x = 1)`); err != nil {
		t.Fatal(err)
	}
	aborts := mgr.AbortCount()
	s.Close() // drop without commit

	// Teardown is asynchronous; wait for the session's abort to land.
	deadline := time.Now().Add(5 * time.Second)
	for mgr.AbortCount() == aborts {
		if time.Now().After(deadline) {
			t.Fatal("dropped connection did not abort its transaction")
		}
		time.Sleep(time.Millisecond)
	}

	// Class creation is catalog-level and non-transactional, but the row
	// was never committed.
	cls, err := store.Catalog().Class("T")
	if err != nil {
		t.Fatal(err)
	}
	rel, err := heap.Open(store.Pool(), cls.SM, cls.Rel)
	if err != nil {
		t.Fatal(err)
	}
	tx := mgr.Begin()
	defer tx.Abort()
	rows := 0
	if err := rel.Scan(tx, func(heap.TID, []byte) (bool, error) {
		rows++
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if rows != 0 {
		t.Fatalf("uncommitted row visible after connection drop: %d", rows)
	}
}

// TestConcurrentClients drives one gateway from many connections at once,
// each running transactions that mix open/seek/read/close over the same
// shared large objects of every raw-readable kind. Every read is checked
// byte-for-byte, so interleaved sessions exercising the sharded pool, frame
// latches and lock-free storage reads must never observe torn or misplaced
// data.
func TestConcurrentClients(t *testing.T) {
	addr, store, _ := startGateway(t, gateway.Options{Chunk: 8 << 10})

	type shared struct {
		ref     adt.ObjectRef
		payload []byte
	}
	mk := func(kind adt.StorageKind, codec string, seed int64, size int) shared {
		payload := compress.GenFrame(seed, size, 0.3)
		return shared{ref: loadObject(t, store, kind, codec, payload), payload: payload}
	}
	objects := []shared{
		mk(adt.KindFChunk, "", 11, 120_000),
		mk(adt.KindFChunk, "fast", 12, 120_000),
		mk(adt.KindVSegment, "fast", 13, 90_000),
	}

	const clients = 6
	const rounds = 12
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			s, err := client.DialStream(addr)
			if err != nil {
				errs <- err
				return
			}
			defer s.Close()
			rng := rand.New(rand.NewSource(int64(id)*7919 + 1))
			for round := 0; round < rounds; round++ {
				if err := s.Begin(); err != nil {
					errs <- fmt.Errorf("client %d round %d begin: %w", id, round, err)
					return
				}
				obj := objects[(id+round)%len(objects)]
				h, err := s.Open(obj.ref)
				if err != nil {
					errs <- fmt.Errorf("client %d round %d open: %w", id, round, err)
					return
				}
				for i := 0; i < 4; i++ {
					off := rng.Intn(len(obj.payload) - 1024)
					if _, err := h.Seek(int64(off), io.SeekStart); err != nil {
						errs <- fmt.Errorf("client %d seek: %w", id, err)
						return
					}
					buf := make([]byte, 1024)
					if _, err := io.ReadFull(h, buf); err != nil {
						errs <- fmt.Errorf("client %d read at %d: %w", id, off, err)
						return
					}
					if !bytes.Equal(buf, obj.payload[off:off+1024]) {
						errs <- fmt.Errorf("client %d round %d: bytes at %d differ from payload", id, round, off)
						return
					}
				}
				if err := h.Close(); err != nil {
					errs <- fmt.Errorf("client %d close: %w", id, err)
					return
				}
				if err := s.Abort(); err != nil {
					errs <- fmt.Errorf("client %d abort: %w", id, err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestJustInTimeClientDecompression is the §3 claim: compressed objects
// ship compressed; the client pays decompression, the network does not.
func TestJustInTimeClientDecompression(t *testing.T) {
	addr, store, _ := startGateway(t, gateway.Options{})
	const logical = 400_000
	payload := compress.GenFrame(2, logical, 0.5) // ~50% compressible
	ref := loadObject(t, store, adt.KindFChunk, "tight", payload)

	s := dialStream(t, addr)
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	defer s.Abort()
	h, err := s.Open(ref)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	got := make([]byte, logical)
	if _, err := io.ReadFull(h, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("client-side decompression produced wrong bytes")
	}
	wire := s.WireBytesIn()
	ratio := float64(wire) / float64(logical)
	t.Logf("just-in-time transfer: %d logical bytes as %d wire bytes (%.2f)", logical, wire, ratio)
	if ratio > 0.65 {
		t.Errorf("wire ratio = %.2f, want ~0.5 (compressed transfer)", ratio)
	}

	// The pre-§3 behaviour ships decompressed bytes: exactly the logical
	// count.
	before := s.WireBytesIn()
	h.Seek(0, io.SeekStart)
	srvGot := make([]byte, 100_000)
	n, err := h.ReadServerSide(srvGot)
	if err != nil {
		t.Fatal(err)
	}
	if shipped := s.WireBytesIn() - before; int64(n) != shipped {
		t.Fatalf("server-side read shipped %d for %d bytes", shipped, n)
	}
	if !bytes.Equal(srvGot[:n], payload[:n]) {
		t.Fatal("server-side read mismatch")
	}
}

// TestRemoteVSegmentRawRead streams a v-segment object whose overwrite left
// trimmed (skip/take) segment records; client-side assembly must honour
// every trim.
func TestRemoteVSegmentRawRead(t *testing.T) {
	addr, store, _ := startGateway(t, gateway.Options{Chunk: 8 << 10})
	tx := store.Pool().Mgr.Begin()
	ref, obj, err := store.Create(tx, core.CreateOptions{Kind: adt.KindVSegment, Codec: "fast"})
	if err != nil {
		t.Fatal(err)
	}
	payload := compress.GenFrame(3, 50_000, 0.3)
	// Write in frames so multiple segments exist, then overwrite a range
	// to create trimmed records.
	for off := 0; off < len(payload); off += 4096 {
		if _, err := obj.Write(payload[off:min(off+4096, len(payload))]); err != nil {
			t.Fatal(err)
		}
	}
	obj.Seek(10_000, io.SeekStart)
	patch := bytes.Repeat([]byte{0xCD}, 3000)
	if _, err := obj.Write(patch); err != nil {
		t.Fatal(err)
	}
	copy(payload[10_000:], patch)
	if err := obj.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	s := dialStream(t, addr)
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	defer s.Abort()
	h, err := s.Open(ref)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(h, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("v-segment raw read mismatch")
	}
}

// TestRemoteQueryRoundTrip commits rows over one connection and retrieves
// them over another: a remote commit is visible to every later session.
func TestRemoteQueryRoundTrip(t *testing.T) {
	addr, _, _ := startGateway(t, gateway.Options{})
	w := dialStream(t, addr)
	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`create EMP (name = text, age = int4)`,
		`append EMP (name = "Joe", age = 29)`,
		`append EMP (name = "Sam", age = 41)`,
	} {
		if _, err := w.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	r := dialStream(t, addr)
	if err := r.Begin(); err != nil {
		t.Fatal(err)
	}
	defer r.Abort()
	res, err := r.Exec(`retrieve (EMP.name) where EMP.age > 30`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "Sam" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// TestRemoteLargeObjectWriteRead reads an object a local loader created,
// seeks to a random range, patches a few bytes remotely and checks the
// patch locally after the remote commit.
func TestRemoteLargeObjectWriteRead(t *testing.T) {
	addr, store, _ := startGateway(t, gateway.Options{})
	payload := compress.GenFrame(1, 100_000, 0.3)
	ref := loadObject(t, store, adt.KindFChunk, "fast", payload)

	s := dialStream(t, addr)
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	h, err := s.Open(ref)
	if err != nil {
		t.Fatal(err)
	}
	size, err := h.Size()
	if err != nil || size != int64(len(payload)) {
		t.Fatalf("size = %d, %v", size, err)
	}
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(h, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("remote read mismatch")
	}
	h.Seek(40_000, io.SeekStart)
	mid := make([]byte, 5000)
	if _, err := io.ReadFull(h, mid); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mid, payload[40_000:45_000]) {
		t.Fatal("remote range read mismatch")
	}
	h.Seek(10, io.SeekStart)
	if _, err := h.Write([]byte("REMOTE")); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	tx := store.Pool().Mgr.Begin()
	defer tx.Abort()
	obj, err := store.Open(tx, ref)
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()
	obj.Seek(10, io.SeekStart)
	buf := make([]byte, 6)
	if _, err := io.ReadFull(obj, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "REMOTE" {
		t.Fatalf("remote write lost: %q", buf)
	}
}

// TestRemoteTimeTravel opens a superseded version as of its commit
// timestamp from inside an open transaction: the snapshot, not the
// transaction's view, decides what is read.
func TestRemoteTimeTravel(t *testing.T) {
	addr, store, _ := startGateway(t, gateway.Options{})
	tx := store.Pool().Mgr.Begin()
	ref, obj, err := store.Create(tx, core.CreateOptions{Kind: adt.KindFChunk})
	if err != nil {
		t.Fatal(err)
	}
	obj.Write([]byte("the original"))
	obj.Close()
	ts1, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}

	tx2 := store.Pool().Mgr.Begin()
	obj2, err := store.Open(tx2, ref)
	if err != nil {
		t.Fatal(err)
	}
	obj2.Seek(4, io.SeekStart)
	obj2.Write([]byte("REVISED!"))
	obj2.Close()
	if _, err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}

	s := dialStream(t, addr)
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	defer s.Abort()
	h, err := s.OpenAsOf(ts1, ref)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	buf := make([]byte, 64)
	n, err := h.ReadServerSide(buf)
	if err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf[:n]) != "the original" {
		t.Fatalf("as-of remote read = %q", buf[:n])
	}
}

// TestServerErrorsAndTxnDiscipline checks that transaction misuse and engine
// errors come back as errors on the request, not as a dead connection.
func TestServerErrorsAndTxnDiscipline(t *testing.T) {
	addr, _, _ := startGateway(t, gateway.Options{})
	s := dialStream(t, addr)

	if _, err := s.Exec(`retrieve (x = newfilename())`); err == nil || !strings.Contains(err.Error(), "no open transaction") {
		t.Fatalf("exec without txn: %v", err)
	}
	if err := s.Abort(); err == nil {
		t.Fatal("abort without txn accepted")
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(); err == nil {
		t.Fatal("double begin accepted")
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err == nil {
		t.Fatal("double commit accepted")
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`frobnicate`); err == nil || !strings.Contains(err.Error(), "syntax") {
		t.Fatalf("syntax error not surfaced: %v", err)
	}
	if err := s.Abort(); err != nil {
		t.Fatal(err)
	}
}
