package postlob

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"postlob/internal/client"
	"postlob/internal/compress"
	"postlob/internal/storage"
)

// edgeRig is a primary and a WAL-shipped read replica, each fronted by
// both gateway protocols: a v2 stream listener and an HTTP server.
type edgeRig struct {
	pdb, rdb *DB
	pgw, rgw *Gateway
	pAddr    string // primary v2 stream address
	rAddr    string // replica v2 stream address
	pHTTP    *httptest.Server
	rHTTP    *httptest.Server
	gwChunk  int
}

func startEdgeRig(t *testing.T, gw GatewayOptions) *edgeRig {
	t.Helper()
	pdb, rdb, _ := replPair(t, Options{}, Options{})
	t.Cleanup(func() { rdb.Close(); pdb.Close() })

	rig := &edgeRig{pdb: pdb, rdb: rdb, gwChunk: gw.Chunk}
	rig.pgw = pdb.NewGateway(gw)
	rig.rgw = rdb.NewGateway(gw) // read-only: rdb is a replica
	t.Cleanup(func() { rig.rgw.Close(); rig.pgw.Close() })

	for _, side := range []struct {
		g    *Gateway
		addr *string
	}{{rig.pgw, &rig.pAddr}, {rig.rgw, &rig.rAddr}} {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		*side.addr = l.Addr().String()
		g := side.g
		go g.ServeStream(l)
	}
	rig.pHTTP = httptest.NewServer(rig.pgw.HTTPHandler())
	rig.rHTTP = httptest.NewServer(rig.rgw.HTTPHandler())
	t.Cleanup(func() { rig.rHTTP.Close(); rig.pHTTP.Close() })
	return rig
}

// httpGetBody fetches a URL (optionally with a Range header) and returns
// the body. Only 200/206 bodies count as LOB bytes.
func httpGetBody(t *testing.T, url, rangeHdr string) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rangeHdr != "" {
		req.Header.Set("Range", rangeHdr)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("GET %s (Range %q) = %d: %s", url, rangeHdr, resp.StatusCode, body)
	}
	return body
}

// TestEdgeSoak mixes pipelined v2 streaming reads and writes over TCP with
// HTTP GET/Range/PUT traffic against a primary and a read-only replica,
// all under one conservation law: the server-side per-protocol byte
// counters must exactly account the LOB bytes the clients received. The
// final phase streams an object far larger than the chunk window and
// asserts the server never buffered more than O(chunk-window) of it.
func TestEdgeSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("edge soak is not a -short test")
	}
	const chunk = 32 << 10
	const window = 8
	const depth = 4
	rig := startEdgeRig(t, GatewayOptions{Chunk: chunk, Window: window, Depth: depth})

	clients := 6
	if env := os.Getenv("EDGECLIENTS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n < 1 {
			t.Fatalf("bad EDGECLIENTS %q", env)
		}
		clients = n
	}

	// --- setup: seed objects on the primary ------------------------------
	// One shared read-only object + one private read/write object per
	// client for the v2 side; HTTP keys under /soak/.
	shared := compress.GenFrame(1000, 600_000, 0.4)
	sharedRef := commitObject(t, rig.pdb, shared)
	privRefs := make([]ObjectRef, clients)
	privData := make([][]byte, clients)
	for i := range privRefs {
		privData[i] = compress.GenFrame(int64(2000+i), 200_000, 0.3)
		privRefs[i] = commitObject(t, rig.pdb, privData[i])
	}
	httpBodies := make(map[string][]byte)
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("/soak/obj%d", i)
		body := compress.GenFrame(int64(3000+i), 150_000, 0.5)
		httpBodies[key] = body
		req, _ := http.NewRequest(http.MethodPut, rig.pHTTP.URL+key, bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("seed PUT %s = %d", key, resp.StatusCode)
		}
	}
	waitCaughtUp(t, rig.pdb, rig.rdb, 30*time.Second)
	asOf := rig.rdb.Now() // a timestamp both nodes can serve

	// --- measured phase --------------------------------------------------
	s0 := ObsSnapshot()
	var lobBytes atomic.Int64  // client-side v2 LOB bytes received
	var httpBytes atomic.Int64 // client-side HTTP object-body bytes received
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fail := func(format string, args ...any) {
				errs <- fmt.Errorf("client %d: %s", c, fmt.Sprintf(format, args...))
			}
			ps, err := client.DialStream(rig.pAddr)
			if err != nil {
				fail("dial primary: %v", err)
				return
			}
			defer func() { lobBytes.Add(ps.LOBBytesIn()); ps.Close() }()
			rs, err := client.DialStream(rig.rAddr)
			if err != nil {
				fail("dial replica: %v", err)
				return
			}
			defer func() { lobBytes.Add(rs.LOBBytesIn()); rs.Close() }()

			mine := append([]byte(nil), privData[c]...)
			for round := 0; round < 4; round++ {
				// Pipelined as-of streaming reads of the shared object from
				// both nodes.
				for _, s := range []*client.Stream{ps, rs} {
					h, err := s.OpenAsOf(asOf, sharedRef)
					if err != nil {
						fail("as-of open: %v", err)
						return
					}
					var sink bytes.Buffer
					off := int64((c*13 + round*7) % 100_000)
					n := int64(50_000 + round*10_000)
					if _, err := h.ReadTo(&sink, off, n); err != nil {
						fail("as-of ReadTo: %v", err)
						return
					}
					if !bytes.Equal(sink.Bytes(), shared[off:off+n]) {
						fail("as-of read mismatch round %d", round)
						return
					}
					h.Close()
				}

				// Transactional read-modify-write of the private object on
				// the primary over v2.
				if err := ps.Begin(); err != nil {
					fail("begin: %v", err)
					return
				}
				h, err := ps.Open(privRefs[c])
				if err != nil {
					fail("open private: %v", err)
					return
				}
				got := make([]byte, 40_000)
				h.Seek(int64(round*1000), io.SeekStart)
				if _, err := io.ReadFull(h, got); err != nil {
					fail("private read: %v", err)
					return
				}
				if !bytes.Equal(got, mine[round*1000:round*1000+len(got)]) {
					fail("private read mismatch round %d", round)
					return
				}
				patch := compress.GenFrame(int64(c*100+round), 60_000, 0.5)
				at := 50_000 + round*5_000
				h.Seek(int64(at), io.SeekStart)
				if _, err := h.Write(patch); err != nil {
					fail("private write: %v", err)
					return
				}
				copy(mine[at:], patch)
				h.Close()
				if _, err := ps.Commit(); err != nil {
					fail("commit: %v", err)
					return
				}

				// HTTP: whole-object and Range GETs from the primary, plus
				// snapshot GETs from the replica for the seeded keys.
				key := fmt.Sprintf("/soak/obj%d", round%3)
				want := httpBodies[key]
				body := httpGetBody(t, rig.pHTTP.URL+key, "")
				if !bytes.Equal(body, want) {
					fail("HTTP GET %s mismatch", key)
					return
				}
				httpBytes.Add(int64(len(body)))
				lo := (c*997 + round*131) % (len(want) - 10_000)
				hi := lo + 9_999
				body = httpGetBody(t, rig.pHTTP.URL+key, fmt.Sprintf("bytes=%d-%d", lo, hi))
				if !bytes.Equal(body, want[lo:hi+1]) {
					fail("HTTP Range GET %s mismatch", key)
					return
				}
				httpBytes.Add(int64(len(body)))
				body = httpGetBody(t, rig.rHTTP.URL+key+"?asOf="+strconv.FormatUint(uint64(asOf), 10), "")
				if !bytes.Equal(body, want) {
					fail("replica HTTP GET %s mismatch", key)
					return
				}
				httpBytes.Add(int64(len(body)))

				// HTTP PUT of a per-client key on the primary (write-path
				// traffic; PUT bodies are bytes_in, not part of the law).
				putBody := compress.GenFrame(int64(c*1000+round), 30_000, 0.5)
				req, _ := http.NewRequest(http.MethodPut, rig.pHTTP.URL+fmt.Sprintf("/soak/c%d", c), bytes.NewReader(putBody))
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					fail("HTTP PUT: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
					fail("HTTP PUT = %d", resp.StatusCode)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// --- the conservation law --------------------------------------------
	// Every v2 stream and every HTTP body completed cleanly, so the
	// server-side counters must exactly equal what the clients measured.
	s1 := ObsSnapshot()
	streamOut := s1.Counter("gateway.stream.bytes_out") - s0.Counter("gateway.stream.bytes_out")
	if streamOut != lobBytes.Load() {
		t.Errorf("conservation: gateway.stream.bytes_out moved %d, clients received %d", streamOut, lobBytes.Load())
	}
	httpOut := s1.Counter("gateway.http.bytes_out") - s0.Counter("gateway.http.bytes_out")
	if httpOut != httpBytes.Load() {
		t.Errorf("conservation: gateway.http.bytes_out moved %d, clients received %d", httpOut, httpBytes.Load())
	}
	if streamOut == 0 || httpOut == 0 {
		t.Error("soak moved no bytes on one protocol — the law held vacuously")
	}

	// --- O(chunk-window) server buffering on a big object ----------------
	const bigLen = 64 << 20
	big := compress.GenFrame(5000, bigLen, 0.0)
	bigRef := commitObject(t, rig.pdb, big)
	rig.pgw.ResetChunkBufferHWM()
	s := mustDial(t, rig.pAddr)
	defer s.Close()
	h, err := s.OpenAsOf(rig.pdb.Now(), bigRef)
	if err != nil {
		t.Fatal(err)
	}
	sum := countingWriter{}
	if n, err := h.ReadTo(&sum, 0, -1); err != nil || n != bigLen {
		t.Fatalf("big ReadTo = %d, %v", n, err)
	}
	h.Close()
	hwm := rig.pgw.ChunkBufferHWM()
	// depth fetched + window in flight + slack, doubled for extent headers
	// and torn chunk boundaries.
	bound := int64((depth + window + 4) * chunk * 2)
	if hwm <= 0 || hwm > bound {
		t.Fatalf("chunk-buffer HWM %d outside (0, %d] while streaming %d bytes", hwm, bound, bigLen)
	}
	if hwm*8 > bigLen {
		t.Fatalf("HWM %d is not small relative to the %d-byte object", hwm, bigLen)
	}
	t.Logf("soak: %d clients, stream_out=%d http_out=%d, big-object HWM=%d (bound %d)",
		clients, streamOut, httpOut, hwm, bound)
}

func mustDial(t *testing.T, addr string) *client.Stream {
	t.Helper()
	s, err := client.DialStream(addr)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// countingWriter discards bytes, keeping only the running total the big
// stream needs.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// TestStreamBuffersReturnOnEveryExit ends a raw streaming read every way
// but cleanly — the client killed mid-stream, a credit-starved stream
// whose client then goes away, a storage read fault mid-pump — and a
// streaming write whose connection dies before the server applies it, and
// checks after each that every pooled frame buffer and every accounted
// chunk byte came back: gateway.stream.frame_bufs counts only the read
// buffer of each open connection, and gateway.chunk.buffered returns to 0.
func TestStreamBuffersReturnOnEveryExit(t *testing.T) {
	var fault *storage.FaultManager
	db, err := Open(t.TempDir(), Options{
		// Far smaller than the object, so the pump's fetches reach the device.
		BufferPoolPages: 64,
		WrapStorage: func(id storage.ID, mgr storage.Manager) storage.Manager {
			if id != storage.Disk {
				return mgr
			}
			fault = storage.NewFaultManager(mgr)
			return fault
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() }) // after the gateway's cleanup
	data := compress.GenFrame(90, 2<<20, 0)
	ref := commitObject(t, db, data)
	const chunk, window = 16 << 10, 4
	small := commitObject(t, db, compress.GenFrame(91, window*chunk, 0))
	addr := serveStream(t, db, GatewayOptions{Chunk: chunk, Window: window, Depth: 4})

	settled := func(exit string, conns int64) {
		t.Helper()
		// The server tears a stream down on its own goroutines, after the
		// client has seen the end.
		deadline := time.Now().Add(10 * time.Second)
		for {
			s := ObsSnapshot()
			bufs, held := s.Gauge("gateway.stream.frame_bufs"), s.Gauge("gateway.chunk.buffered")
			if bufs == conns && held == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d frame buffers out (want %d, one per open connection), %d chunk bytes accounted", exit, bufs, conns, held)
			}
			time.Sleep(time.Millisecond)
		}
	}
	settled("before any stream", 0)
	// waitShipped waits until the pump has shipped a window of frames since
	// chunks_out read sent.
	waitShipped := func(sent int64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for ObsSnapshot().Counter("gateway.stream.chunks_out")-sent < window {
			if time.Now().After(deadline) {
				t.Fatal("the pump never filled its window")
			}
			time.Sleep(time.Millisecond)
		}
	}

	// The client goes away mid-stream, while frames and credits flow.
	s := mustDial(t, addr)
	h, err := s.OpenAsOf(db.Now(), ref)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.ReadTo(&hookWriter{at: 64 << 10, hook: func() { s.Close() }}, 0, -1); err == nil {
		t.Fatal("ReadTo outlived its connection")
	}
	settled("connection killed mid-stream", 0)

	// The consumer stalls on its first frame and grants no credit, so the
	// pump ships its window and parks with its read-ahead fetched; then the
	// client goes away.
	s = mustDial(t, addr)
	if h, err = s.OpenAsOf(db.Now(), ref); err != nil {
		t.Fatal(err)
	}
	sent := ObsSnapshot().Counter("gateway.stream.chunks_out")
	unblock := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := h.ReadTo(&hookWriter{at: 1, hook: func() { <-unblock }}, 0, -1)
		done <- err
	}()
	waitShipped(sent)
	s.Close()
	close(unblock)
	if err := <-done; err == nil {
		t.Fatal("ReadTo outlived its connection")
	}
	settled("credit-starved stream closed", 0)

	// A transactional read runs inside the connection's dispatcher; starved
	// of credit for its FIN, it holds the dispatcher while a write's data
	// frames queue up behind it. Then the connection dies: the write is
	// never served, and teardown must reclaim its frames.
	s = mustDial(t, addr)
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	hr, err := s.Open(small)
	if err != nil {
		t.Fatal(err)
	}
	hw, err := s.Open(small)
	if err != nil {
		t.Fatal(err)
	}
	sent = ObsSnapshot().Counter("gateway.stream.chunks_out")
	unblock = make(chan struct{})
	readDone, writeDone := make(chan error, 1), make(chan error, 1)
	go func() {
		_, err := hr.ReadTo(&hookWriter{at: 1, hook: func() { <-unblock }}, 0, -1)
		readDone <- err
	}()
	waitShipped(sent)
	settled("transactional read parked", 1)
	go func() {
		_, err := hw.Write(make([]byte, (window+1)*chunk))
		writeDone <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for ObsSnapshot().Gauge("gateway.stream.frame_bufs") < 1+window {
		if time.Now().After(deadline) {
			t.Fatal("the write's data frames never reached the server")
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()
	close(unblock)
	if err := <-readDone; err == nil {
		t.Fatal("ReadTo outlived its connection")
	}
	if err := <-writeDone; err == nil {
		t.Fatal("Write outlived its connection")
	}
	settled("write cut off by its connection", 0)

	// A storage read fault stops the pump mid-stream: the stream fails, the
	// connection lives on and serves the next read and write in full.
	s = mustDial(t, addr)
	defer s.Close()
	if h, err = s.OpenAsOf(db.Now(), ref); err != nil {
		t.Fatal(err)
	}
	_, err = h.ReadTo(&hookWriter{at: 64 << 10, hook: func() { fault.FailReads(true) }}, 0, -1)
	fault.Heal()
	if err == nil || !strings.Contains(err.Error(), storage.ErrInjected.Error()) {
		t.Fatalf("ReadTo over a failing device = %v, want the injected fault", err)
	}
	settled("storage read fault mid-pump", 1)
	var sink bytes.Buffer
	if n, err := h.ReadTo(&sink, 0, -1); err != nil || !bytes.Equal(sink.Bytes(), data) {
		t.Fatalf("ReadTo after the fault healed = %d, %v (bytes equal: %v)", n, err, bytes.Equal(sink.Bytes(), data))
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	// A clean write returns everything too.
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if hw, err = s.Open(small); err != nil {
		t.Fatal(err)
	}
	if _, err := hw.Write(make([]byte, 3*window*chunk)); err != nil {
		t.Fatal(err)
	}
	if err := hw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Abort(); err != nil {
		t.Fatal(err)
	}
	settled("clean read and write after the fault", 1)
	s.Close()
	settled("connection closed after the fault", 0)
}

// hookWriter discards what it is given and runs hook once, when it has
// seen at least at bytes.
type hookWriter struct {
	n, at int64
	hook  func()
}

func (w *hookWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	if w.hook != nil && w.n >= w.at {
		w.hook()
		w.hook = nil
	}
	return len(p), nil
}
