package gateway

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"postlob/internal/adt"
	"postlob/internal/compress"
	"postlob/internal/core"
	"postlob/internal/inversion"
	"postlob/internal/query"
)

// Options configure a Gateway.
type Options struct {
	// Chunk is the streaming granularity in bytes (default DefaultChunk,
	// capped at MaxChunk). It is the unit of framing, server-side
	// buffering, and read-ahead.
	Chunk int
	// Window is the per-stream credit window in frames (default
	// DefaultWindow, capped at MaxWindow).
	Window int
	// Depth is how many chunks a streaming read fetches concurrently
	// ahead of the network (default 4). Raw reads bypass the buffer
	// pool's sequential prefetcher, so this is what keeps the device busy
	// while earlier chunks cross the wire.
	Depth int
	// FS configures the Inversion file system backing the HTTP frontend
	// (bucket/key ↔ directory/file). Ignored by the stream protocol.
	FS inversion.Options
}

// Gateway is the server edge: one streaming core, two protocol frontends
// (ServeStream for the v2 chunked wire protocol, HTTPHandler for the
// S3-style object API).
type Gateway struct {
	store  *core.Store
	engine *query.Engine
	opts   Options

	// fsMu serialises the lazy Inversion bootstrap for the HTTP frontend.
	// It is held across inversion.Init (which reads and may create catalog
	// classes), so in the lock hierarchy it ranks above the catalog latch.
	fsMu sync.Mutex
	fs   *inversion.FS // guarded by fsMu until set, then read-only

	// smu guards the stream listener/connection table (never held across
	// I/O or any store call).
	smu      sync.Mutex
	listener net.Listener      // guarded by smu
	closed   bool              // guarded by smu
	conns    map[net.Conn]bool // guarded by smu
	wg       sync.WaitGroup

	readOnly atomic.Bool
	chunkHWM atomic.Int64
	chunkCur atomic.Int64
}

// New builds a gateway over a store. Queries run through a dedicated
// engine sharing the store's catalog and registry.
func New(store *core.Store, opts Options) *Gateway {
	if opts.Chunk <= 0 {
		opts.Chunk = DefaultChunk
	}
	if opts.Chunk > MaxChunk {
		opts.Chunk = MaxChunk
	}
	if opts.Window <= 0 {
		opts.Window = DefaultWindow
	}
	if opts.Window > MaxWindow {
		opts.Window = MaxWindow
	}
	if opts.Depth <= 0 {
		opts.Depth = 4
	}
	if opts.FS.Kind == adt.KindUFile {
		// U-files need a server-side path per object, which the HTTP API has
		// no way to supply; chunked objects are the only kind every frontend
		// operation supports.
		opts.FS.Kind = adt.KindFChunk
	}
	return &Gateway{store: store, engine: query.New(store), opts: opts, conns: make(map[net.Conn]bool)}
}

// SetReadOnly puts the gateway in replica mode: every mutating operation
// — begin, exec, write, PUT, DELETE — is refused at the edge while
// snapshot reads pass through.
func (g *Gateway) SetReadOnly() { g.readOnly.Store(true) }

// ChunkBufferHWM returns the high-water mark of the streaming core's
// in-flight chunk-buffer bytes — the O(chunk-window) bound the edge soak
// asserts while streaming objects far larger than it.
func (g *Gateway) ChunkBufferHWM() int64 { return g.chunkHWM.Load() }

// ResetChunkBufferHWM clears the high-water mark (test harnesses bracket
// phases with it).
func (g *Gateway) ResetChunkBufferHWM() {
	g.chunkHWM.Store(g.chunkCur.Load())
	obsChunkHWM.Set(g.chunkHWM.Load())
}

// chunkAcquire accounts n bytes of chunk buffering coming into flight.
func (g *Gateway) chunkAcquire(n int) {
	cur := g.chunkCur.Add(int64(n))
	obsChunkBuffered.Add(int64(n))
	for {
		hwm := g.chunkHWM.Load()
		if cur <= hwm {
			return
		}
		if g.chunkHWM.CompareAndSwap(hwm, cur) {
			obsChunkHWM.Set(cur)
			return
		}
	}
}

// chunkRelease accounts n bytes of chunk buffering leaving flight.
func (g *Gateway) chunkRelease(n int) {
	g.chunkCur.Add(int64(-n))
	obsChunkBuffered.Add(int64(-n))
}

// --- the streaming read pump --------------------------------------------------

// chunkPiece is one fetched chunk: its logical range and either raw
// extents (raw reads) or decoded logical bytes (data reads). accounted is
// the chunk-buffer footprint charged at fetch time; the consumer releases
// it once the piece has left the server (written to the wire).
type chunkPiece struct {
	off       int64
	n         int64
	extents   []core.RawExtent
	data      []byte
	accounted int
}

// release returns the piece's accounted buffer bytes.
func (p *chunkPiece) release(g *Gateway) {
	if p.accounted > 0 {
		g.chunkRelease(p.accounted)
		p.accounted = 0
	}
}

// rawFetch reads [off, off+n) as stored extents via fn and charges the
// chunk accounting for what came back.
func (g *Gateway) rawFetch(fn readRawFn, off, n int64) (*chunkPiece, error) {
	extents, err := fn(off, n)
	if err != nil {
		return nil, err
	}
	acc := 0
	for i := range extents {
		acc += extentWireLen(&extents[i])
	}
	g.chunkAcquire(acc)
	return &chunkPiece{off: off, n: n, extents: extents, accounted: acc}, nil
}

// dataFetch reads [off, off+n) as decoded logical bytes: raw extents
// fetched and decompressed server-side into a zero-filled chunk buffer —
// the shared core of OpRead streaming and HTTP GET bodies.
func (g *Gateway) dataFetch(fn readRawFn, off, n int64) (*chunkPiece, error) {
	extents, err := fn(off, n)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, n)
	for i := range extents {
		e := &extents[i]
		decoded, err := compress.Decode(e.Encoded)
		if err != nil {
			return nil, fmt.Errorf("gateway: extent at %d: %w", e.LogStart, err)
		}
		if e.Skip+e.Take > len(decoded) {
			return nil, fmt.Errorf("gateway: extent at %d out of bounds", e.LogStart)
		}
		at := e.LogStart - off
		if at < 0 || at+int64(e.Take) > n {
			return nil, fmt.Errorf("gateway: extent at %d outside chunk [%d,%d)", e.LogStart, off, off+n)
		}
		copy(buf[at:], decoded[e.Skip:e.Skip+e.Take])
	}
	g.chunkAcquire(len(buf))
	return &chunkPiece{off: off, n: n, data: buf, accounted: len(buf)}, nil
}

// readRawFn reads stored extents for one chunk range. The two bindings are
// transactional (store.ReadRaw) and snapshot (store.ReadRawAsOf) reads.
type readRawFn func(off, n int64) ([]core.RawExtent, error)

// pumpChunks streams [off, end) in chunk-granular pieces, fetching up to
// depth chunks concurrently ahead of the consumer and emitting strictly in
// order. The consumer owns each emitted piece's buffer accounting (it
// calls piece.release once the bytes have left the server). A fetch or
// emit error stops the pump; already-fetched pieces are drained and
// released before it returns, so the chunk accounting always balances.
//
// Raw extent reads do not advance the buffer pool's sequential-scan
// prefetch frontier, so this overlap is the only thing keeping the device
// busy while earlier chunks cross the wire — per-stream read-ahead is what
// turns a latency-bound edge read into a bandwidth-bound one.
func (g *Gateway) pumpChunks(chunkSize int, off, end int64, fetch func(off, n int64) (*chunkPiece, error),
	emit func(p *chunkPiece, last bool) error) error {
	if off >= end {
		return nil
	}
	chunk := int64(chunkSize)
	depth := g.opts.Depth
	type result struct {
		p   *chunkPiece
		err error
	}
	var pending []chan result
	next := off
	launch := func() {
		if next >= end {
			return
		}
		o, n := next, chunk
		if o+n > end {
			n = end - o
		}
		next += n
		ch := make(chan result, 1)
		go func() {
			p, err := fetch(o, n)
			ch <- result{p, err}
		}()
		pending = append(pending, ch)
	}
	for i := 0; i < depth; i++ {
		launch()
	}
	var firstErr error
	for len(pending) > 0 {
		r := <-pending[0]
		pending = pending[1:]
		if firstErr == nil && r.err != nil {
			firstErr = r.err
		}
		if firstErr != nil {
			// Error path: stop launching, drain what is in flight, release
			// everything unconsumed.
			if r.p != nil {
				r.p.release(g)
			}
			continue
		}
		launch()
		last := len(pending) == 0
		if err := emit(r.p, last); err != nil {
			r.p.release(g)
			firstErr = err
		}
	}
	return firstErr
}

// clampRange resolves a requested [off, off+n) against an object size:
// the logical range actually served. n < 0 means "to the end".
func clampRange(off, n, size int64) (int64, int64) {
	if off < 0 {
		off = 0
	}
	if off > size {
		off = size
	}
	end := size
	if n >= 0 && off+n < end {
		end = off + n
	}
	return off, end
}
