package gateway_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"postlob/internal/adt"
	"postlob/internal/buffer"
	"postlob/internal/catalog"
	"postlob/internal/client"
	"postlob/internal/compress"
	"postlob/internal/core"
	"postlob/internal/crcframe"
	"postlob/internal/gateway"
	"postlob/internal/heap"
	"postlob/internal/storage"
	"postlob/internal/txn"
)

// startGateway brings up a v2 stream listener over a fresh in-memory store.
func startGateway(t testing.TB, opts gateway.Options) (string, *core.Store, *gateway.Gateway) {
	t.Helper()
	dir := t.TempDir()
	sw := storage.NewSwitch()
	sw.Register(storage.Mem, storage.NewMemManager(storage.DeviceModel{}, nil))
	pool := &heap.Pool{Buf: buffer.NewPool(256, sw, nil), Mgr: txn.NewManager()}
	store := core.NewStore(pool, catalog.NewMemory(), adt.NewRegistry(), core.Config{
		FilesDir:  filepath.Join(dir, "pfiles"),
		DefaultSM: storage.Mem,
	})
	opts.FS.SM = storage.Mem
	g := gateway.New(store, opts)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go g.ServeStream(l)
	t.Cleanup(func() { g.Close() })
	return l.Addr().String(), store, g
}

// role is a fixed gateway.Role: replica marks a read-only replica, and
// serve, when set, takes replication connections.
type role struct {
	replica bool
	serve   func(net.Conn)
}

func (r role) ReadOnly() bool             { return r.replica }
func (r role) Replicator() func(net.Conn) { return r.serve }

func dialStream(t testing.TB, addr string) *client.Stream {
	t.Helper()
	s, err := client.DialStream(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// createOptions creates an object of the given kind and codec; a u-file
// gets a fresh path of its own.
func createOptions(t testing.TB, kind adt.StorageKind, codec string) core.CreateOptions {
	opts := core.CreateOptions{Kind: kind, Codec: codec}
	if kind == adt.KindUFile {
		opts.Path = filepath.Join(t.TempDir(), "blob.bin")
	}
	return opts
}

// loadObject creates and commits a large object directly in the store.
func loadObject(t testing.TB, store *core.Store, kind adt.StorageKind, codec string, payload []byte) adt.ObjectRef {
	t.Helper()
	tx := store.Pool().Mgr.Begin()
	ref, obj, err := store.Create(tx, createOptions(t, kind, codec))
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

// everyKind lists the paper's six object configurations.
var everyKind = []struct {
	name  string
	kind  adt.StorageKind
	codec string
}{
	{"ufile", adt.KindUFile, ""},
	{"pfile", adt.KindPFile, ""},
	{"fchunk", adt.KindFChunk, ""},
	{"fchunk-fast", adt.KindFChunk, "fast"},
	{"fchunk-tight", adt.KindFChunk, "tight"},
	{"vsegment-fast", adt.KindVSegment, "fast"},
}

// loadSparse creates and commits an object of the given kind holding data,
// then a hole, then more data, and returns its ref and committed size.
func loadSparse(t testing.TB, store *core.Store, kind adt.StorageKind, codec string) (adt.ObjectRef, int64) {
	t.Helper()
	tx := store.Pool().Mgr.Begin()
	ref, obj, err := store.Create(tx, createOptions(t, kind, codec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Write(compress.GenFrame(41, 20_000, 0.4)); err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Seek(50_000, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Write(compress.GenFrame(42, 21_000, 0.4)); err != nil {
		t.Fatal(err)
	}
	if err := obj.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return ref, 71_000
}

// TestStreamEveryKind: every object kind reads through the one streaming
// path, and Read, ReadServerSide and ReadTo each return what an in-process
// Read returns, at the start, mid-chunk, at the tail, inside a sparse gap
// and past the end. An as-of open of a file kind fails with the
// no-time-travel error and leaves the connection usable.
func TestStreamEveryKind(t *testing.T) {
	addr, store, _ := startGateway(t, gateway.Options{Chunk: 8 << 10, Window: 2})
	s := dialStream(t, addr)
	spans := []struct {
		name   string
		off, n int64
	}{
		{"start", 0, 1000},
		{"mid-chunk", 5_000, 20_000},
		{"tail", 68_000, 10_000},
		{"sparse", 22_000, 20_000},
		{"past-end", 80_000, 100},
	}
	for _, k := range everyKind {
		t.Run(k.name, func(t *testing.T) {
			ref, size := loadSparse(t, store, k.kind, k.codec)
			want := func(off, n int64) []byte {
				tx := store.Pool().Mgr.Begin()
				defer tx.Abort()
				obj, err := store.Open(tx, ref)
				if err != nil {
					t.Fatal(err)
				}
				defer obj.Close()
				if _, err := obj.Seek(off, io.SeekStart); err != nil {
					t.Fatal(err)
				}
				b := make([]byte, max(0, min(n, size-off)))
				if _, err := io.ReadFull(obj, b); err != nil {
					t.Fatal(err)
				}
				return b
			}
			if err := s.Begin(); err != nil {
				t.Fatal(err)
			}
			defer s.Abort()
			h, err := s.Open(ref)
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			// readAt adapts Read and ReadServerSide, which read at the
			// handle's position; io.EOF with nothing read is an empty result.
			readAt := func(read func([]byte) (int, error)) func(off, n int64) ([]byte, error) {
				return func(off, n int64) ([]byte, error) {
					h.Seek(off, io.SeekStart)
					b := make([]byte, n)
					got, err := read(b)
					if err == io.EOF && got == 0 {
						err = nil
					}
					return b[:got], err
				}
			}
			reads := []struct {
				name string
				read func(off, n int64) ([]byte, error)
			}{
				{"Read", readAt(h.Read)},
				{"ReadServerSide", readAt(h.ReadServerSide)},
				{"ReadTo", func(off, n int64) ([]byte, error) {
					var sink bytes.Buffer
					got, err := h.ReadTo(&sink, off, n)
					if got != int64(sink.Len()) {
						t.Errorf("ReadTo returned %d, wrote %d", got, sink.Len())
					}
					return sink.Bytes(), err
				}},
			}
			for _, sp := range spans {
				exp := want(sp.off, sp.n)
				for _, r := range reads {
					got, err := r.read(sp.off, sp.n)
					if err != nil {
						t.Fatalf("%s %s: %v", r.name, sp.name, err)
					}
					if !bytes.Equal(got, exp) {
						t.Fatalf("%s %s: %d bytes differ from the %d of an in-process read", r.name, sp.name, len(got), len(exp))
					}
				}
			}

			// Creating a file-kind object stamps no commit timestamp, and an
			// as-of open at InvalidTS would be a transactional one.
			ah, err := s.OpenAsOf(max(store.Pool().Mgr.Now(), 1), ref)
			travels := k.kind == adt.KindFChunk || k.kind == adt.KindVSegment
			if travels != (err == nil) {
				t.Fatalf("as-of open: %v", err)
			}
			if travels {
				ah.Close()
			} else if !strings.Contains(err.Error(), core.ErrNoTravel.Error()) {
				t.Fatalf("as-of open of %s: %v", k.name, err)
			}
			if got, err := reads[0].read(0, size); err != nil || !bytes.Equal(got, want(0, size)) {
				t.Fatalf("whole read after as-of open: %d bytes, %v", len(got), err)
			}
		})
	}
}

// TestOpenAsOfBeforeAnyCommit: a store holding only a p-file has stamped no
// commit timestamp, so Now reports 0. An as-of open at that timestamp must
// fail with ErrNothingCommitted, even inside a transaction, and leave the
// connection serving the transactional Open that follows.
func TestOpenAsOfBeforeAnyCommit(t *testing.T) {
	addr, store, _ := startGateway(t, gateway.Options{})
	payload := bytes.Repeat([]byte("no timestamp yet "), 100)
	ref := loadObject(t, store, adt.KindPFile, "", payload)
	s := dialStream(t, addr)
	now, err := s.Now()
	if err != nil {
		t.Fatal(err)
	}
	if now != txn.InvalidTS {
		t.Fatalf("Now = %d after creating only a p-file, want 0", now)
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	defer s.Abort()
	h, err := s.OpenAsOf(now, ref)
	if !errors.Is(err, client.ErrNothingCommitted) || h != nil {
		t.Fatalf("OpenAsOf(0) = %v, %v; want no handle and ErrNothingCommitted", h, err)
	}
	h, err = s.Open(ref)
	if err != nil {
		t.Fatalf("Open after the refused as-of open: %v", err)
	}
	defer h.Close()
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(h, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("transactional read after the refused as-of open returned other bytes")
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

// TestStreamLobjReadBadLength sends lobj_read lengths straight from the
// query text. A negative one is an error on that query, not a crash of the
// server, and the connection stays usable; a huge one reads what the object
// holds past the offset without asking for that much memory.
func TestStreamLobjReadBadLength(t *testing.T) {
	addr, store, _ := startGateway(t, gateway.Options{})
	if err := store.Registry().CreateLargeType(adt.LargeType{
		Name: "image", Kind: adt.KindFChunk, Codec: compress.Fast{}, SM: storage.Mem,
	}); err != nil {
		t.Fatal(err)
	}
	s := dialStream(t, addr)
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`retrieve (lobj_read(newlobj("image"), 0, -1))`); err == nil || !strings.Contains(err.Error(), "negative length") {
		t.Fatalf("negative length: %v", err)
	}
	if _, err := s.Exec(`create DOC (name = text, body = large-object)`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`append DOC (name = "a", body = newlobj(""))`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`retrieve (n = lobj_write(DOC.body, 0, "hello, large objects")) where DOC.name = "a"`); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		q    string
		want string
	}{
		{`retrieve (x = lobj_read(DOC.body, 7, 4611686018427387904)) where DOC.name = "a"`, "large objects"},
		{`retrieve (x = lobj_read(DOC.body, 0, 5)) where DOC.name = "a"`, "hello"},
		{`retrieve (x = lobj_read(DOC.body, 64, 10)) where DOC.name = "a"`, ""},
	} {
		res, err := s.Exec(tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.q, err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Str != tc.want {
			t.Fatalf("%s: rows = %v, want %q", tc.q, res.Rows, tc.want)
		}
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
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
	g.SetRole(role{replica: true})

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

// streamReads sets up what TestStreamReadAllocs and BenchmarkStreamReadTo
// measure — a loopback gateway and client, and one 1 MiB object — and
// returns one whole-object read through ReadTo. A fast-codec f-chunk is
// read as of a snapshot, the benchmark's edge_stream op; a u-file, which
// has no snapshots, in one open transaction.
func streamReads(t testing.TB, kind adt.StorageKind) (payload []byte, read func(w io.Writer)) {
	addr, store, _ := startGateway(t, gateway.Options{})
	payload = compress.GenFrame(70, 1<<20, 0.5)
	s := dialStream(t, addr)
	var open func() (*client.StreamObject, error)
	if kind == adt.KindUFile {
		ref := loadObject(t, store, kind, "", payload)
		if err := s.Begin(); err != nil {
			t.Fatal(err)
		}
		open = func() (*client.StreamObject, error) { return s.Open(ref) }
	} else {
		ref := loadObject(t, store, kind, "fast", payload)
		ts := store.Pool().Mgr.Now()
		open = func() (*client.StreamObject, error) { return s.OpenAsOf(ts, ref) }
	}
	return payload, func(w io.Writer) {
		h, err := open()
		if err != nil {
			t.Fatal(err)
		}
		if n, err := h.ReadTo(w, 0, -1); err != nil || n != int64(len(payload)) {
			t.Fatalf("ReadTo = %d, %v", n, err)
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStreamReadAllocs pins what a raw streaming read allocates, server and
// client together. Each stored envelope is copied once, from its pinned
// page into a pooled frame buffer, and the client reads frames into pooled
// buffers and decodes into reused scratch, so what is left is per-request
// bookkeeping: at most 0.05 bytes allocated per byte streamed.
func TestStreamReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of what it is given under the race detector")
	}
	payload, read := streamReads(t, adt.KindFChunk)
	// Start from empty pools: buffers that earlier tests in the package left
	// behind are too small for this read's frames, and each one taken from the
	// pool would count as an allocation here. Two collections empty a
	// sync.Pool, its victim cache included. No collection from here on: it
	// would empty the pools again.
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var sink bytes.Buffer
	read(&sink)
	if !bytes.Equal(sink.Bytes(), payload) {
		t.Fatal("stream mismatch")
	}
	// The pools fill over the first few reads: how many buffers a read
	// holds at once depends on how far the pump runs ahead of the client.
	for i := 0; i < 4; i++ {
		read(io.Discard)
	}
	const reads = 32
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		read(io.Discard)
	}
	runtime.ReadMemStats(&after)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(reads*len(payload))
	t.Logf("%.4f B allocated per byte streamed (%d reads of %d bytes)", perByte, reads, len(payload))
	if perByte > 0.05 {
		t.Errorf("raw streaming read allocates %.3f B per byte streamed, want <= 0.05", perByte)
	}
}

// BenchmarkStreamReadTo is the edge_stream op in miniature: a whole-object
// snapshot read of a 1 MiB fast-codec object over a loopback gateway
// (fchunk-fast), and the same read of a u-file, whose bytes the server
// copies once more, from the file into a raw envelope (ufile).
func BenchmarkStreamReadTo(b *testing.B) {
	for _, kind := range []struct {
		name string
		kind adt.StorageKind
	}{{"fchunk-fast", adt.KindFChunk}, {"ufile", adt.KindUFile}} {
		b.Run(kind.name, func(b *testing.B) {
			payload, read := streamReads(b, kind.kind)
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				read(io.Discard)
			}
		})
	}
}

// lateListener hands back one connection only after Close has been called
// on it: the Accept that returns just as the gateway's Close has swept its
// live connections.
type lateListener struct {
	conn      net.Conn
	accepting chan struct{} // closed when the first Accept parks
	closed    chan struct{}
	once      sync.Once
	handed    atomic.Bool
}

func (l *lateListener) Accept() (net.Conn, error) {
	if l.handed.CompareAndSwap(false, true) {
		close(l.accepting)
		<-l.closed
		return l.conn, nil
	}
	<-l.closed
	return nil, net.ErrClosed
}

func (l *lateListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *lateListener) Addr() net.Addr { return l.conn.LocalAddr() }

// TestGatewayCloseRefusesLateAccept: a connection Accept returns while
// Close runs must not be served past Close. Close returns with the
// connection closed and ServeStream returned.
func TestGatewayCloseRefusesLateAccept(t *testing.T) {
	sw := storage.NewSwitch()
	sw.Register(storage.Mem, storage.NewMemManager(storage.DeviceModel{}, nil))
	pool := &heap.Pool{Buf: buffer.NewPool(64, sw, nil), Mgr: txn.NewManager()}
	store := core.NewStore(pool, catalog.NewMemory(), adt.NewRegistry(), core.Config{
		FilesDir:  filepath.Join(t.TempDir(), "pfiles"),
		DefaultSM: storage.Mem,
	})
	g := gateway.New(store, gateway.Options{})
	server, client := net.Pipe()
	defer client.Close()
	ln := &lateListener{conn: server, accepting: make(chan struct{}), closed: make(chan struct{})}
	served := make(chan error, 1)
	go func() { served <- g.ServeStream(ln) }()
	<-ln.accepting
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	client.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := client.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("connection accepted during Close still open after it: read %v", err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("ServeStream: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeStream still running after Close")
	}
}

// rawConn speaks the stream protocol directly, one request at a time, as a
// client outside internal/client would.
type rawConn struct {
	t    *testing.T
	conn net.Conn
	enc  *crcframe.MsgEncoder
	dec  *crcframe.MsgDecoder
}

// dialRaw connects and sends hello, returning the connection and the
// server's answer or refusal.
func dialRaw(t *testing.T, addr string, hello *gateway.Hello) (*rawConn, *gateway.Hello, error) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	c := &rawConn{t: t, conn: conn, enc: crcframe.NewMsgEncoder(), dec: crcframe.NewMsgDecoder()}
	ans, err := gateway.Greet(conn, c.enc, c.dec, hello)
	return c, ans, err
}

// call sends req on stream and returns its Resp.
func (c *rawConn) call(stream uint32, req *gateway.Req) *gateway.Resp {
	c.t.Helper()
	p, err := c.enc.Encode(req)
	if err != nil {
		c.t.Fatal(err)
	}
	b, err := gateway.AppendFrame(nil, &gateway.Frame{Kind: gateway.KindReq, Stream: stream, Payload: p})
	if err == nil {
		_, err = c.conn.Write(b)
	}
	if err != nil {
		c.t.Fatal(err)
	}
	f, _, err := gateway.ReadFrameInto(c.conn, nil)
	if err != nil {
		c.t.Fatal(err)
	}
	if f.Kind != gateway.KindResp || f.Stream != stream {
		c.t.Fatalf("got %v frame on stream %d, want the response on stream %d", f.Kind, f.Stream, stream)
	}
	var r gateway.Resp
	if err := c.dec.Decode(f.Payload, &r); err != nil {
		c.t.Fatal(err)
	}
	return &r
}

// TestSnapshotOpenAtZeroRefused: a snapshot open at timestamp 0, sent on
// the wire by a client that skips client.OpenAsOf's own check, is refused
// rather than served as a transactional open, and so is an as-of timestamp
// without the snapshot flag. The connection then opens the object as of a
// real commit.
func TestSnapshotOpenAtZeroRefused(t *testing.T) {
	addr, store, _ := startGateway(t, gateway.Options{})
	payload := bytes.Repeat([]byte("snapshot "), 200)
	ref := loadObject(t, store, adt.KindFChunk, "", payload)
	c, _, err := dialRaw(t, addr, &gateway.Hello{Proto: gateway.Proto})
	if err != nil {
		t.Fatal(err)
	}
	if r := c.call(1, &gateway.Req{Op: gateway.OpBegin}); r.Err != "" {
		t.Fatal(r.Err)
	}
	if r := c.call(2, &gateway.Req{Op: gateway.OpOpen, Ref: ref, Snapshot: true}); !strings.Contains(r.Err, "timestamp 0") {
		t.Fatalf("snapshot open at 0 answered %+v, want a refusal", r)
	}
	now := c.call(3, &gateway.Req{Op: gateway.OpNow}).TS
	if r := c.call(4, &gateway.Req{Op: gateway.OpOpen, Ref: ref, AsOf: now}); !strings.Contains(r.Err, "snapshot false") {
		t.Fatalf("as-of open without the snapshot flag answered %+v, want a refusal", r)
	}
	r := c.call(5, &gateway.Req{Op: gateway.OpOpen, Ref: ref, Snapshot: true, AsOf: now})
	if r.Err != "" {
		t.Fatalf("snapshot open at %d after the refusals: %s", now, r.Err)
	}
	if sz := c.call(6, &gateway.Req{Op: gateway.OpSize, Handle: r.Handle}); sz.Err != "" || sz.Size != int64(len(payload)) {
		t.Fatalf("size of the snapshot handle: %+v, want %d", sz, len(payload))
	}
}

// TestReplicationHelloRefusedWithoutSender: a gateway with no WAL sender
// refuses a replication Hello with a readable reason and closes the
// connection, keeps serving ordinary clients, and closes without waiting on
// the refused connection.
func TestReplicationHelloRefusedWithoutSender(t *testing.T) {
	addr, _, g := startGateway(t, gateway.Options{})
	c, _, err := dialRaw(t, addr, &gateway.Hello{Proto: gateway.Proto, Replication: true})
	if err == nil || !strings.Contains(err.Error(), "replication refused") {
		t.Fatalf("replication hello answered %v, want a refusal", err)
	}
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("refused connection still open: read %v", err)
	}
	if _, err := dialStream(t, addr).Now(); err != nil {
		t.Fatalf("ordinary client after the refusal: %v", err)
	}
	closed := make(chan error, 1)
	go func() { closed <- g.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("gateway Close hung after a refused replication hello")
	}
}

// TestReplicationHelloHandedOff: a replication Hello is answered as one and
// the raw connection goes to the replication handler, which owns it from
// there; Close ends the handler's connection and waits for it.
func TestReplicationHelloHandedOff(t *testing.T) {
	addr, _, g := startGateway(t, gateway.Options{})
	handled := make(chan struct{})
	g.SetRole(role{serve: func(conn net.Conn) {
		defer close(handled)
		conn.Write([]byte("sender"))
		io.Copy(io.Discard, conn) // until the gateway closes it
	}})
	c, ans, err := dialRaw(t, addr, &gateway.Hello{Proto: gateway.Proto, Replication: true})
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Replication || ans.Proto != gateway.Proto {
		t.Fatalf("replication hello answered %+v", ans)
	}
	got := make([]byte, len("sender"))
	if _, err := io.ReadFull(c.conn, got); err != nil || string(got) != "sender" {
		t.Fatalf("after the hand-off read %q, %v; want the handler's bytes", got, err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-handled:
	default:
		t.Fatal("gateway Close returned before the replication handler")
	}
}
