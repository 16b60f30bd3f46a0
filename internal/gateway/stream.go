package gateway

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"postlob/internal/adt"
	"postlob/internal/catalog"
	"postlob/internal/core"
	"postlob/internal/obs"
	"postlob/internal/query"
	"postlob/internal/repl"
	"postlob/internal/txn"
)

// maxPipeline bounds how many decoded requests may queue behind the
// dispatcher on one connection. A client that pipelines deeper than this
// while a streaming op is in progress has broken the protocol contract and
// the connection is dropped — the bound is what keeps a rogue peer from
// ballooning server memory with queued requests.
const maxPipeline = 64

// errConnDone aborts in-flight streaming work when the connection dies.
var errConnDone = errors.New("gateway: connection closed")

// ServeStream accepts v2 protocol connections on l until Close. It returns
// after the listener fails or is closed.
func (g *Gateway) ServeStream(l net.Listener) error {
	g.smu.Lock()
	if g.closed {
		g.smu.Unlock()
		return errors.New("gateway: closed")
	}
	g.listener = l
	g.smu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			g.smu.Lock()
			closed := g.closed
			g.smu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		g.smu.Lock()
		g.conns[conn] = true
		g.smu.Unlock()
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			g.handleStream(conn)
		}()
	}
}

// Close stops accepting stream connections and tears down live ones.
func (g *Gateway) Close() error {
	g.smu.Lock()
	g.closed = true
	l := g.listener
	for conn := range g.conns {
		conn.Close()
	}
	g.smu.Unlock()
	var err error
	if l != nil {
		err = l.Close()
	}
	g.wg.Wait()
	return err
}

// writeItem is one frame queued for the connection's writer goroutine:
// either already encoded (buf), or a control message (msg) the writer frames
// itself, because the connection's gob stream must be encoded in wire order.
// The optional release hook runs once the bytes have left the server (or the
// connection has died) — chunk-buffer accounting and bytes_out counting hang
// off it so both reflect delivery, not staging.
type writeItem struct {
	buf     []byte
	release func()

	msg    any
	kind   Kind
	stream uint32
}

// streamState is the reader-side routing record for one active stream:
// creditCh receives the peer's flow-control grants (server→client
// streams), dataCh receives the peer's data frames (client→server
// writes). Entries live in gwConn.streams only while the stream is
// active.
type streamState struct {
	creditCh chan uint32
	dataCh   chan *Frame
}

// reqItem is one decoded request queued for the dispatcher.
type reqItem struct {
	stream uint32
	req    Req
}

// gwConn is one v2 connection. Goroutine layout:
//
//   - the reader (handleStream itself) decodes frames and routes them:
//     requests to reqCh, write data and credits to the owning stream's
//     channels. It never blocks on a full channel — overflow is a
//     protocol violation and kills the connection — so it can always keep
//     routing credits while the dispatcher streams.
//   - the dispatcher consumes reqCh in order: control ops and
//     transactional streaming run inline (serialised against the
//     session's transaction); as-of streaming reads run in their own
//     goroutines, so snapshot streams multiplex freely.
//   - the writer drains out; every enqueue selects on done so nothing
//     wedges when the connection dies.
type gwConn struct {
	g    *Gateway
	conn net.Conn

	chunk  int // negotiated chunk size
	window int // negotiated per-stream credit window

	out      chan writeItem
	done     chan struct{}
	killOnce sync.Once

	enc *MsgEncoder // owned by the writer goroutine
	dec *MsgDecoder // owned by the reader

	reqCh chan *reqItem

	// mu guards streams; it is a leaf — held only for map access, never
	// across channel operations, I/O, or store calls.
	mu      sync.Mutex
	streams map[uint32]*streamState

	streamWG   sync.WaitGroup // as-of streaming read goroutines
	dispDone   chan struct{}
	writerDone chan struct{}
}

// kill tears the connection down exactly once. A non-empty reason is a
// protocol violation: counted, and reported to the peer on stream 0 as a
// best-effort courtesy (it may interleave with an in-flight writer frame;
// the peer treats the resulting CRC failure as the same torn connection).
func (c *gwConn) kill(reason string) {
	c.killOnce.Do(func() {
		if reason != "" {
			obsStreamErrors.Inc()
			if b, err := EncodeFrame(&Frame{Kind: KindErr, Stream: 0, Payload: []byte(reason)}); err == nil {
				c.conn.Write(b)
			}
		}
		c.conn.Close()
		close(c.done)
	})
}

// send queues an encoded frame for the writer. It never blocks past
// connection death; on a dead connection the release hook still runs so
// accounting balances.
func (c *gwConn) send(buf []byte, release func()) bool {
	select {
	case c.out <- writeItem{buf: buf, release: release}:
		return true
	case <-c.done:
		if release != nil {
			release()
		}
		return false
	}
}

// sendFrame encodes and queues one frame.
func (c *gwConn) sendFrame(f *Frame, release func()) bool {
	b, err := EncodeFrame(f)
	if err != nil {
		if release != nil {
			release()
		}
		c.kill(err.Error())
		return false
	}
	return c.send(b, release)
}

// sendMsg queues a control message; the writer encodes it.
func (c *gwConn) sendMsg(kind Kind, stream uint32, msg any) bool {
	select {
	case c.out <- writeItem{msg: msg, kind: kind, stream: stream}:
		return true
	case <-c.done:
		return false
	}
}

// respond completes a stream's request.
func (c *gwConn) respond(stream uint32, r *Resp) { c.sendMsg(KindResp, stream, r) }

// sendCredit grants the peer n more in-flight frames on a stream.
func (c *gwConn) sendCredit(stream uint32, n uint32) {
	c.sendFrame(&Frame{Kind: KindCredit, Stream: stream, Payload: creditPayload(n)}, nil)
}

// sendStreamErr aborts one stream with an error, leaving the connection
// (and its other streams) alive.
func (c *gwConn) sendStreamErr(stream uint32, err error) {
	msg := err.Error()
	if len(msg) > 1024 {
		msg = msg[:1024]
	}
	c.sendFrame(&Frame{Kind: KindErr, Stream: stream, Payload: []byte(msg)}, nil)
}

// register installs a stream's routing record; a duplicate id is a
// protocol violation.
func (c *gwConn) register(stream uint32, st *streamState) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.streams[stream]; dup {
		return false
	}
	c.streams[stream] = st
	return true
}

func (c *gwConn) unregister(stream uint32) {
	c.mu.Lock()
	delete(c.streams, stream)
	c.mu.Unlock()
}

func (c *gwConn) lookup(stream uint32) *streamState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.streams[stream]
}

// writer drains the out queue onto the socket, encoding control messages
// as it reaches them. After a write error it keeps draining — running
// release hooks so accounting balances — until the senders are done and out
// is closed.
func (c *gwConn) writer() {
	defer close(c.writerDone)
	failed := false
	var msgBuf []byte // reused: the write below is synchronous
	for it := range c.out {
		if !failed {
			buf := it.buf
			var err error
			if it.msg != nil {
				// An encoded message that never reaches the wire would leave
				// the peer's decoder behind, so any failure here is fatal.
				var p []byte
				if p, err = c.enc.Encode(it.msg); err == nil {
					msgBuf, err = AppendFrame(msgBuf[:0], &Frame{Kind: it.kind, Stream: it.stream, Payload: p})
					buf = msgBuf
				}
				if err != nil {
					failed = true
					c.kill(err.Error())
				}
			}
			if !failed {
				if _, err := c.conn.Write(buf); err != nil {
					failed = true
					c.kill("")
				}
			}
		}
		if it.release != nil {
			it.release()
		}
	}
}

// handleStream runs one connection: Hello negotiation, then the reader
// loop, with the dispatcher and writer alongside.
func (g *Gateway) handleStream(conn net.Conn) {
	obsStreamConns.Inc()
	defer func() {
		obsStreamConns.Dec()
		g.smu.Lock()
		delete(g.conns, conn)
		g.smu.Unlock()
		conn.Close()
	}()

	c := &gwConn{
		g:          g,
		conn:       conn,
		chunk:      g.opts.Chunk,
		window:     g.opts.Window,
		out:        make(chan writeItem, 16),
		done:       make(chan struct{}),
		enc:        NewMsgEncoder(),
		dec:        NewMsgDecoder(),
		reqCh:      make(chan *reqItem, maxPipeline),
		streams:    make(map[uint32]*streamState),
		dispDone:   make(chan struct{}),
		writerDone: make(chan struct{}),
	}
	go c.writer()

	sess := &session{c: c, g: g, handles: make(map[int32]sessHandle), nextID: 1}
	go c.dispatch(sess)

	c.readLoop()

	// Teardown: connection is dead. Stop the dispatcher, wait out the
	// as-of streams, then retire the writer (every sender is gone by the
	// time out closes).
	c.kill("")
	<-c.dispDone
	c.streamWG.Wait()
	close(c.out)
	<-c.writerDone
}

// negotiate clamps the client's Hello proposal to the server's limits.
func (c *gwConn) negotiate(h *Hello) error {
	if h.Proto != Proto {
		return fmt.Errorf("protocol %d not supported (want %d)", h.Proto, Proto)
	}
	if h.Chunk > 0 && h.Chunk < c.chunk {
		c.chunk = h.Chunk
	}
	if c.chunk < 4096 {
		c.chunk = 4096
	}
	if h.Window > 0 && h.Window < c.window {
		c.window = h.Window
	}
	if c.window < 1 {
		c.window = 1
	}
	return nil
}

// readLoop is the connection's reader: Hello first, then frame routing
// until the peer hangs up or violates the protocol.
func (c *gwConn) readLoop() {
	f, err := ReadFrame(c.conn)
	if err != nil {
		return
	}
	if f.Kind != KindHello || f.Stream != 0 {
		c.kill("expected hello")
		return
	}
	var hello Hello
	if err := c.dec.Decode(f.Payload, &hello); err != nil {
		c.kill(err.Error())
		return
	}
	if err := c.negotiate(&hello); err != nil {
		c.kill(err.Error())
		return
	}
	if !c.sendMsg(KindHello, 0, &Hello{Proto: Proto, Chunk: c.chunk, Window: c.window}) {
		return
	}

	for {
		f, err := ReadFrame(c.conn)
		if err != nil {
			if errors.Is(err, ErrFrame) {
				c.kill(err.Error())
			}
			return // EOF or torn connection
		}
		switch f.Kind {
		case KindReq:
			if f.Stream == 0 {
				c.kill("request on stream 0")
				return
			}
			it := &reqItem{stream: f.Stream}
			if err := c.dec.Decode(f.Payload, &it.req); err != nil {
				c.kill(err.Error())
				return
			}
			if it.req.Op == OpWrite {
				// Register the data route before the request is queued:
				// the client pipelines its data frames right behind the
				// request, ahead of the dispatcher picking it up.
				st := &streamState{dataCh: make(chan *Frame, c.window+2)}
				if !c.register(f.Stream, st) {
					c.kill(fmt.Sprintf("duplicate stream %d", f.Stream))
					return
				}
			}
			select {
			case c.reqCh <- it:
			default:
				c.kill(fmt.Sprintf("pipeline deeper than %d requests", maxPipeline))
				return
			}
		case KindData:
			st := c.lookup(f.Stream)
			if st == nil || st.dataCh == nil {
				c.kill(fmt.Sprintf("data frame on unknown stream %d", f.Stream))
				return
			}
			// Write data queued here is server memory: account it so the
			// O(chunk-window) high-water mark covers the write path too.
			c.g.chunkAcquire(len(f.Payload))
			select {
			case st.dataCh <- f:
			default:
				c.g.chunkRelease(len(f.Payload))
				c.kill(fmt.Sprintf("stream %d overran its %d-frame window", f.Stream, c.window))
				return
			}
		case KindCredit:
			n, err := DecodeCredit(f.Payload)
			if err != nil {
				c.kill(err.Error())
				return
			}
			st := c.lookup(f.Stream)
			if st == nil || st.creditCh == nil {
				// A credit racing the end of its stream is legitimate —
				// the server sent FIN and deregistered while the grant
				// was in flight. Drop it.
				continue
			}
			select {
			case st.creditCh <- n:
			default:
				c.kill(fmt.Sprintf("stream %d credit overflow", f.Stream))
				return
			}
		default:
			c.kill(fmt.Sprintf("unexpected %v frame", f.Kind))
			return
		}
	}
}

// --- dispatcher ---------------------------------------------------------------

// sessHandle is one open large-object handle. asOf is InvalidTS for
// transactional handles.
type sessHandle struct {
	obj  core.Object
	asOf txn.TS
}

// session is one connection's state: at most one transaction, a table of
// open handles, and query results kept alive to end of transaction. It is
// owned by the dispatcher goroutine — no locking; as-of streaming
// goroutines never touch it (their jobs carry ref + timestamp and the
// snapshot fetch path opens its own objects).
type session struct {
	c       *gwConn
	g       *Gateway
	tx      *txn.Txn
	handles map[int32]sessHandle
	results []*query.Result
	nextID  int32
}

// dispatch consumes requests in order until the connection dies, then
// releases the session.
func (c *gwConn) dispatch(sess *session) {
	defer close(c.dispDone)
	defer sess.cleanup()
	for {
		select {
		case <-c.done:
			return
		case it := <-c.reqCh:
			sess.serve(it)
		}
	}
}

// cleanup aborts any open transaction and releases handles and results.
func (sess *session) cleanup() {
	for _, h := range sess.handles {
		h.obj.Close()
	}
	sess.handles = map[int32]sessHandle{}
	for _, res := range sess.results {
		res.Close()
	}
	sess.results = nil
	if sess.tx != nil && !sess.tx.Done() {
		sess.tx.Abort()
	}
	sess.tx = nil
}

func (sess *session) closeHandles() {
	for id, h := range sess.handles {
		h.obj.Close()
		delete(sess.handles, id)
	}
}

func (sess *session) finishResults() {
	for _, res := range sess.results {
		res.Close()
	}
	sess.results = nil
}

// needTx returns the open transaction or an error message.
func (sess *session) needTx() (*txn.Txn, string) {
	if sess.tx == nil || sess.tx.Done() {
		return nil, "no open transaction (send begin first)"
	}
	return sess.tx, ""
}

// serve times and executes one request.
func (sess *session) serve(it *reqItem) {
	obsStreamReqs.Inc()
	t := rpcTimer(it.req.Op)
	if t == nil {
		obsStreamUnknown.Inc()
		sess.c.respond(it.stream, &Resp{Err: fmt.Sprintf("unknown op %d", uint8(it.req.Op))})
		return
	}
	sw := t.Start()
	if !sess.dispatchOp(it, sw) {
		sw.Stop()
	}
	// else: an as-of streaming goroutine owns the stopwatch.
}

func failResp(format string, args ...any) *Resp {
	return &Resp{Err: fmt.Sprintf(format, args...)}
}

// dispatchOp executes one request. It returns true when an async stream
// goroutine has taken ownership of the stopwatch.
func (sess *session) dispatchOp(it *reqItem, sw obs.Stopwatch) bool {
	c := sess.c
	req := &it.req
	if sess.g.readOnly.Load() {
		switch req.Op {
		case OpBegin, OpExec:
			c.respond(it.stream, failResp("replica is read-only: %v refused (read via as-of opens)", req.Op))
			return false
		}
		// OpWrite is refused inside serveWrite so the pipelined data
		// frames still drain.
	}
	switch req.Op {
	case OpBegin:
		if sess.tx != nil && !sess.tx.Done() {
			c.respond(it.stream, failResp("transaction already open"))
			return false
		}
		sess.tx = sess.g.store.Pool().Mgr.Begin()
		c.respond(it.stream, &Resp{})
	case OpCommit:
		if sess.tx == nil || sess.tx.Done() {
			c.respond(it.stream, failResp("no open transaction"))
			return false
		}
		sess.closeHandles()
		ts, err := sess.tx.Commit()
		sess.finishResults()
		sess.tx = nil
		if err != nil {
			c.respond(it.stream, failResp("commit: %v", err))
			return false
		}
		c.respond(it.stream, &Resp{TS: ts})
	case OpAbort:
		if sess.tx == nil || sess.tx.Done() {
			c.respond(it.stream, failResp("no open transaction"))
			return false
		}
		sess.closeHandles()
		err := sess.tx.Abort()
		sess.finishResults()
		sess.tx = nil
		if err != nil {
			c.respond(it.stream, failResp("abort: %v", err))
			return false
		}
		c.respond(it.stream, &Resp{})
	case OpNow:
		c.respond(it.stream, &Resp{TS: sess.g.store.Pool().Mgr.Now()})
	case OpExec:
		tx, errMsg := sess.needTx()
		if errMsg != "" {
			c.respond(it.stream, &Resp{Err: errMsg})
			return false
		}
		res, err := sess.g.engine.Exec(tx, req.Query)
		if err != nil {
			c.respond(it.stream, failResp("%v", err))
			return false
		}
		sess.results = append(sess.results, res)
		c.respond(it.stream, &Resp{Columns: res.Columns, Rows: res.Rows, UsedIndex: res.UsedIndex})
	case OpOpen:
		sess.open(it)
	case OpClose:
		h, ok := sess.handles[req.Handle]
		if !ok {
			c.respond(it.stream, failResp("bad handle %d", req.Handle))
			return false
		}
		delete(sess.handles, req.Handle)
		if err := h.obj.Close(); err != nil {
			c.respond(it.stream, failResp("close: %v", err))
			return false
		}
		c.respond(it.stream, &Resp{})
	case OpSize:
		h, ok := sess.handles[req.Handle]
		if !ok {
			c.respond(it.stream, failResp("bad handle %d", req.Handle))
			return false
		}
		n, err := h.obj.Size()
		if err != nil {
			c.respond(it.stream, failResp("size: %v", err))
			return false
		}
		c.respond(it.stream, &Resp{Size: n})
	case OpRead, OpRawRead:
		return sess.serveRead(it, sw)
	case OpWrite:
		sess.serveWrite(it)
	default:
		obsStreamUnknown.Inc()
		c.respond(it.stream, failResp("unknown op %d", uint8(req.Op)))
	}
	return false
}

func (sess *session) open(it *reqItem) {
	req := &it.req
	var obj core.Object
	var err error
	if req.AsOf != txn.InvalidTS {
		obj, err = sess.g.store.OpenAsOf(req.AsOf, req.Ref)
		if err == nil && sess.g.readOnly.Load() {
			// Snapshot open served from the replica's own pool.
			repl.CountReplicaRead()
		}
	} else {
		tx, errMsg := sess.needTx()
		if errMsg != "" {
			sess.c.respond(it.stream, &Resp{Err: errMsg})
			return
		}
		obj, err = sess.g.store.Open(tx, req.Ref)
	}
	if err != nil {
		sess.c.respond(it.stream, failResp("open: %v", err))
		return
	}
	id := sess.nextID
	sess.nextID++
	h := sessHandle{obj: obj, asOf: req.AsOf}
	sess.handles[id] = h
	sess.c.respond(it.stream, &Resp{Handle: id})
}

// kindHasRaw reports whether the object kind has a stored-extent (raw)
// form — file-backed objects do not; they stream through the seek/read
// fallback.
func (g *Gateway) kindHasRaw(ref adt.ObjectRef) bool {
	meta, err := g.store.Catalog().Object(catalog.OID(ref.OID))
	return err == nil && (meta.Kind == adt.KindFChunk || meta.Kind == adt.KindVSegment)
}

// streamJob is everything a streaming read needs — deliberately free of
// session state so as-of jobs can run outside the dispatcher: the
// snapshot fetch path opens its own objects from ref + timestamp.
type streamJob struct {
	ref      adt.ObjectRef
	asOf     txn.TS
	tx       *txn.Txn // nil for as-of jobs
	off, end int64
	size     int64
	raw      bool
	canRaw   bool
}

// serveRead starts a streaming read. Transactional reads run inline in
// the dispatcher (serialised against their transaction's other ops);
// as-of reads run in their own goroutine and multiplex freely with
// everything else on the connection.
func (sess *session) serveRead(it *reqItem, sw obs.Stopwatch) bool {
	c := sess.c
	req := &it.req
	h, ok := sess.handles[req.Handle]
	if !ok {
		c.respond(it.stream, failResp("bad handle %d", req.Handle))
		return false
	}
	size, err := h.obj.Size()
	if err != nil {
		c.respond(it.stream, failResp("size: %v", err))
		return false
	}
	off, end := clampRange(req.Offset, req.N, size)
	raw := req.Op == OpRawRead
	canRaw := sess.g.kindHasRaw(h.obj.Ref())
	if raw && !canRaw {
		c.respond(it.stream, failResp("object has no raw form (use read)"))
		return false
	}
	job := streamJob{ref: h.obj.Ref(), asOf: h.asOf, off: off, end: end, size: size, raw: raw, canRaw: canRaw}
	if h.asOf != txn.InvalidTS {
		c.streamWG.Add(1)
		go func() {
			defer c.streamWG.Done()
			defer sw.Stop()
			c.streamOut(job, it.stream)
		}()
		return true
	}
	job.tx = sess.tx
	c.streamOut(job, it.stream)
	return false
}

// bindJob resolves the extent reader for a streaming job.
func (g *Gateway) bindJob(j *streamJob) readRawFn {
	if j.asOf != txn.InvalidTS {
		return func(off, n int64) ([]core.RawExtent, error) {
			return g.store.ReadRawAsOf(j.asOf, j.ref, off, n)
		}
	}
	return func(off, n int64) ([]core.RawExtent, error) {
		return g.store.ReadRaw(j.tx, j.ref, off, n)
	}
}

// streamOut runs one streaming read end to end: announce with a Resp,
// stream data/extent frames under the credit window, terminate with an
// empty FIN frame (or a stream error).
func (c *gwConn) streamOut(j streamJob, stream uint32) {
	g := c.g
	st := &streamState{creditCh: make(chan uint32, MaxWindow)}
	if !c.register(stream, st) {
		c.kill(fmt.Sprintf("duplicate stream %d", stream))
		return
	}
	defer c.unregister(stream)

	c.respond(stream, &Resp{Size: j.size, N: j.end - j.off})

	kind := KindData
	if j.raw {
		kind = KindExtents
	}
	credits := c.window
	takeCredit := func() bool {
		for credits == 0 {
			select {
			case n := <-st.creditCh:
				credits += int(n)
			case <-c.done:
				return false
			}
		}
		credits--
		return true
	}
	// emitFrame ships one payload under the window; release runs after
	// the bytes hit the socket.
	emitFrame := func(payload []byte, release func()) error {
		if !takeCredit() {
			if release != nil {
				release()
			}
			return errConnDone
		}
		obsStreamChunksOut.Inc()
		if !c.sendFrame(&Frame{Kind: kind, Stream: stream, Payload: payload}, release) {
			return errConnDone
		}
		return nil
	}

	var err error
	fn := g.bindJob(&j)
	switch {
	case j.raw:
		err = g.pumpChunks(c.chunk, j.off, j.end,
			func(o, n int64) (*chunkPiece, error) { return g.rawFetch(fn, o, n) },
			func(p *chunkPiece, last bool) error { return emitExtentPiece(g, p, emitFrame) })
	case j.canRaw:
		err = g.pumpChunks(c.chunk, j.off, j.end,
			func(o, n int64) (*chunkPiece, error) { return g.dataFetch(fn, o, n) },
			func(p *chunkPiece, last bool) error {
				n := p.n
				rel := func() {
					p.release(g)
					obsStreamBytesOut.Add(n)
				}
				return emitFrame(p.data, rel)
			})
	default:
		err = c.seqStream(&j, emitFrame)
	}
	if err != nil {
		if !errors.Is(err, errConnDone) {
			c.sendStreamErr(stream, err)
		}
		return
	}
	if !takeCredit() {
		return
	}
	obsStreamChunksOut.Inc()
	c.sendFrame(&Frame{Kind: kind, Flags: FlagFIN, Stream: stream}, nil)
}

// emitExtentPiece ships one raw chunk's extents, packing whole extents
// into frames up to MaxChunk. A fully sparse chunk ships nothing — the
// client zero-fills from the announced range — but its logical bytes
// still count as served.
func emitExtentPiece(g *Gateway, p *chunkPiece, emitFrame func([]byte, func()) error) error {
	remain := 0 // wire bytes not yet packed: each frame is allocated once, at its final size
	for i := range p.extents {
		remain += extentWireLen(&p.extents[i])
	}
	var frames [][]byte
	var payload []byte
	for i := range p.extents {
		e := &p.extents[i]
		n := extentWireLen(e)
		if len(payload) > 0 && len(payload)+n > MaxChunk {
			frames = append(frames, payload)
			payload = nil
		}
		if payload == nil {
			payload = make([]byte, 0, min(remain, MaxChunk))
		}
		payload = appendExtent(payload, e)
		remain -= n
	}
	if len(payload) > 0 {
		frames = append(frames, payload)
	}
	n := p.n
	if len(frames) == 0 {
		p.release(g)
		obsStreamBytesOut.Add(n)
		return nil
	}
	for i, fp := range frames {
		var rel func()
		if i == len(frames)-1 {
			rel = func() {
				p.release(g)
				obsStreamBytesOut.Add(n)
			}
		}
		if err := emitFrame(fp, rel); err != nil {
			if rel == nil {
				// The tail frame carrying the release never shipped.
				p.release(g)
			}
			return err
		}
	}
	return nil
}

// seqStream is the fallback for object kinds with no raw form (u-files,
// p-files): a private handle, sequential chunk reads, same framing and
// accounting as the pump.
func (c *gwConn) seqStream(j *streamJob, emitFrame func([]byte, func()) error) error {
	g := c.g
	var obj core.Object
	var err error
	if j.asOf != txn.InvalidTS {
		obj, err = g.store.OpenAsOf(j.asOf, j.ref)
	} else {
		obj, err = g.store.Open(j.tx, j.ref)
	}
	if err != nil {
		return err
	}
	defer obj.Close()
	if _, err := obj.Seek(j.off, io.SeekStart); err != nil {
		return err
	}
	remain := j.end - j.off
	for remain > 0 {
		want := int64(c.chunk)
		if want > remain {
			want = remain
		}
		buf := make([]byte, want)
		g.chunkAcquire(int(want))
		rn, err := io.ReadFull(obj, buf)
		if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
			g.chunkRelease(int(want))
			return err
		}
		if rn == 0 {
			g.chunkRelease(int(want))
			break
		}
		nn := int64(rn)
		rel := func() {
			g.chunkRelease(int(want))
			obsStreamBytesOut.Add(nn)
		}
		if err := emitFrame(buf[:rn], rel); err != nil {
			return err
		}
		remain -= nn
		if nn < want {
			break
		}
	}
	return nil
}

// serveWrite consumes a streaming write: the client's data frames arrive
// on the stream's dataCh (routed by the reader), are applied in order at
// ascending offsets, and each consumed frame earns the client a credit.
// On failure the server still drains — and credits — to the FIN so the
// pipelined sender never stalls, then reports the error in the Resp.
func (sess *session) serveWrite(it *reqItem) {
	c := sess.c
	st := c.lookup(it.stream)
	if st == nil || st.dataCh == nil {
		c.kill(fmt.Sprintf("write stream %d not registered", it.stream))
		return
	}
	defer c.unregister(it.stream)

	var failMsg string
	var obj core.Object
	switch h, ok := sess.handles[it.req.Handle]; {
	case sess.g.readOnly.Load():
		failMsg = "replica is read-only: write refused"
	case !ok:
		failMsg = fmt.Sprintf("bad handle %d", it.req.Handle)
	case h.asOf != txn.InvalidTS:
		failMsg = "as-of handle is read-only"
	default:
		obj = h.obj
		if _, err := obj.Seek(it.req.Offset, io.SeekStart); err != nil {
			failMsg = fmt.Sprintf("seek: %v", err)
			obj = nil
		}
	}

	var total int64
	for {
		select {
		case <-c.done:
			return
		case f := <-st.dataCh:
			if len(f.Payload) > 0 && failMsg == "" {
				wn, err := obj.Write(f.Payload)
				if err != nil {
					failMsg = fmt.Sprintf("write: %v", err)
				} else {
					total += int64(wn)
					obsStreamBytesIn.Add(int64(wn))
					obsStreamChunksIn.Inc()
				}
			}
			sess.g.chunkRelease(len(f.Payload))
			if f.Flags&FlagFIN != 0 {
				if failMsg != "" {
					c.respond(it.stream, &Resp{Err: failMsg})
				} else {
					c.respond(it.stream, &Resp{N: total})
				}
				return
			}
			c.sendCredit(it.stream, 1)
		}
	}
}
