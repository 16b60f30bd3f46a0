package gateway

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"postlob/internal/adt"
	"postlob/internal/compress"
	"postlob/internal/core"
	"postlob/internal/daemon"
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
	// (bucket/key ↔ directory/file). Ignored by the stream protocol. A
	// u-file or p-file Kind is stored as f-chunk: every GET reads a
	// snapshot, which file kinds cannot serve.
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
	fsMu       sync.Mutex
	fs         *inversion.FS // guarded by fsMu
	fsReadOnly bool          // guarded by fsMu; fs was opened on a replica

	// srv owns the stream listener and its connections.
	srv  daemon.Server
	role Role // see SetRole

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
	if opts.FS.Kind == adt.KindUFile || opts.FS.Kind == adt.KindPFile {
		// Every HTTP GET is a snapshot read, and file kinds have no time
		// travel (u-files also need a server-side path per object, which the
		// HTTP API has no way to supply): chunked objects are the only kind
		// every frontend operation supports.
		opts.FS.Kind = adt.KindFChunk
	}
	return &Gateway{store: store, engine: query.New(store), opts: opts, role: primary{}}
}

// Role is what the database behind a gateway is now. The gateway asks at
// each use, so one built before a replica is promoted serves writes and
// replicas after it.
type Role interface {
	// ReadOnly reports a replica: every mutating operation — begin, exec,
	// write, PUT, DELETE — is refused at the edge while snapshot reads
	// pass through.
	ReadOnly() bool
	// Replicator returns the handler for connections whose Hello asks for
	// replication (the WAL sender's), or nil to refuse them.
	Replicator() func(net.Conn)
}

// SetRole makes the gateway consult role. Call it before serving; without
// it the gateway is writable and refuses replication.
func (g *Gateway) SetRole(role Role) { g.role = role }

// primary is the role of a gateway SetRole never reached.
type primary struct{}

func (primary) ReadOnly() bool             { return false }
func (primary) Replicator() func(net.Conn) { return nil }

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

// chunkPiece is one fetched chunk: its logical range and the frame buffers
// that will carry it, payloads built in place — the chunk's stored extents
// packed up to MaxChunk a frame (raw reads; none for a sparse chunk), or
// its decoded bytes in one frame (data reads). accounted is the
// chunk-buffer footprint charged at fetch time; the consumer releases it
// once the piece has left the server (written to the wire).
type chunkPiece struct {
	off       int64
	n         int64
	frames    []*frameBuf // not yet handed to the writer
	accounted int
}

// release returns the piece's unshipped frame buffers to the pool and its
// accounted buffer bytes.
func (p *chunkPiece) release(g *Gateway) {
	for _, fb := range p.frames {
		fb.free()
	}
	p.frames = nil
	if p.accounted > 0 {
		g.chunkRelease(p.accounted)
		p.accounted = 0
	}
}

// rawFetch reads [off, off+n) as stored extents and charges the chunk
// accounting for them. Each extent is appended, as visit shows it on its
// pinned page, straight into a frame buffer: the envelope's one copy on
// its way to the socket.
func (g *Gateway) rawFetch(visit visitRawFn, off, n int64) (*chunkPiece, error) {
	p := &chunkPiece{off: off, n: n}
	var fb *frameBuf
	err := visit(off, n, func(e *core.RawExtent) error {
		w := extentWireLen(e)
		if fb == nil || (len(fb.b) > HdrLen && len(fb.b)-HdrLen+w > MaxChunk) {
			fb = newFrameBuf(min(int(n), MaxChunk))
			p.frames = append(p.frames, fb)
		}
		fb.b = appendExtent(fb.b, e)
		p.accounted += w
		return nil
	})
	g.chunkAcquire(p.accounted)
	if err != nil {
		p.release(g)
		return nil, err
	}
	return p, nil
}

// dataFetch reads [off, off+n) as decoded logical bytes in one frame
// buffer — the shared core of OpRead streaming and HTTP GET bodies. An
// envelope the range holds whole decodes from its pinned page straight
// into place; sparse gaps are zeros.
func (g *Gateway) dataFetch(visit visitRawFn, off, n int64) (*chunkPiece, error) {
	fb := newFrameBuf(int(n))
	fb.b = fb.b[:HdrLen+int(n)]
	buf := fb.b[HdrLen:]
	clear(buf)
	var scratch []byte // envelopes the range cuts decode here first
	err := visit(off, n, func(e *core.RawExtent) error {
		at := e.LogStart - off
		if at < 0 || at+int64(e.Take) > n {
			return fmt.Errorf("gateway: extent at %d outside chunk [%d,%d)", e.LogStart, off, off+n)
		}
		span := buf[at : at+int64(e.Take) : at+int64(e.Take)]
		dst := span[:0]
		if e.Skip > 0 {
			dst = scratch[:0]
		}
		decoded, err := compress.DecodeInto(dst, e.Encoded)
		if err != nil {
			return fmt.Errorf("gateway: extent at %d: %w", e.LogStart, err)
		}
		if e.Skip+e.Take > len(decoded) {
			return fmt.Errorf("gateway: extent at %d out of bounds", e.LogStart)
		}
		if e.Skip > 0 || len(decoded) > e.Take {
			// Cut at the front, or at the range's end — where the decoder
			// outgrew span and moved to a fresh buffer: copy the part shown.
			copy(span, decoded[e.Skip:])
			scratch = decoded
		}
		return nil
	})
	if err != nil {
		fb.free()
		return nil, err
	}
	g.chunkAcquire(int(n))
	return &chunkPiece{off: off, n: n, frames: []*frameBuf{fb}, accounted: int(n)}, nil
}

// visitRawFn visits the stored extents of one chunk range. The two
// bindings are transactional (store.VisitRaw) and snapshot
// (store.VisitRawAsOf) reads.
type visitRawFn func(off, n int64, fn func(*core.RawExtent) error) error

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
